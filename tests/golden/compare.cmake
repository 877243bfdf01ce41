# Golden-output check: run PROGRAM with ARGS and compare its stdout with the
# GOLDEN file byte for byte.  The output is kept at ACTUAL; on a mismatch the
# script prints `diff -u GOLDEN ACTUAL` and fails.
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" \
#         -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "output of `${PROGRAM} ${ARGS}` differs from ${GOLDEN}")
endif()
