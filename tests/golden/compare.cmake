# Golden-output check: run PROGRAM with ARGS and compare its stdout with the
# GOLDEN file byte for byte.  The output is kept at ACTUAL; on a mismatch the
# script prints `diff -u GOLDEN ACTUAL` and fails.
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" \
#         -DGOLDEN=<file> -DACTUAL=<file> [-DDROP="<prefix>|<prefix>"] \
#         -P compare.cmake
#
# DROP lists line prefixes, separated by `|` and matched literally: every
# output line that starts with one of them is removed before the compare
# (and from ACTUAL), for lines that report wall-clock time.  The golden file
# holds the output without those lines.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${status}")
endif()

if(DROP)
  # A leading newline lets "\n<prefix>[^\n]*" match the first line too; the
  # match takes the line's own text and the newline before it.
  file(READ "${ACTUAL}" text)
  set(text "\n${text}")
  string(REPLACE "|" ";" prefixes "${DROP}")
  foreach(prefix IN LISTS prefixes)
    string(REGEX REPLACE "([][.*+?^$()\\\\])" "\\\\\\1" literal "${prefix}")
    string(REGEX REPLACE "\n${literal}[^\n]*" "" text "${text}")
  endforeach()
  string(SUBSTRING "${text}" 1 -1 text)
  file(WRITE "${ACTUAL}" "${text}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "output of `${PROGRAM} ${ARGS}` differs from ${GOLDEN}")
endif()
