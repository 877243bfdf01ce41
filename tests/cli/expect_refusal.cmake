# Refusal check: PROGRAM run with ARGS must exit 1 and print EXPECT (a
# literal substring) on stderr.  A command that runs instead of refusing,
# such as a daemon that starts listening, is stopped after 10 s and fails.
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" \
#         -DEXPECT=<text> -P expect_refusal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status
                TIMEOUT 10)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "`${PROGRAM} ${ARGS}` exited with '${status}', "
                      "expected 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of `${PROGRAM} ${ARGS}` lacks '${EXPECT}':\n"
                      "${err}")
endif()
