# Golden-file check: run PROGRAM with ARGS, in which @OUT@ stands for an
# empty output directory, then compare the files the command wrote there
# with the golden set.
#
#   cmake -DPROGRAM=<exe> -DARGS="<space-separated args>" -DOUT=<dir> \
#         (-DGOLDEN_DIR=<dir> | -DDIGESTS=<file>) -P compare_files.cmake
#
# GOLDEN_DIR holds the expected files, compared byte for byte.  DIGESTS
# lists one `<sha256>  <file name>` line per expected file (the format
# `sha256sum` prints), for sets too large to commit.  Either way OUT must
# hold exactly the expected files.  The written files stay under OUT; on a
# mismatch the script names every file that differs and fails.
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
string(CONFIGURE "${ARGS}" configured @ONLY)
separate_arguments(args UNIX_COMMAND "${configured}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${configured} exited with ${status}")
endif()

set(expected)
if(GOLDEN_DIR)
  file(GLOB expected RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*")
else()
  file(STRINGS "${DIGESTS}" lines)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
      message(FATAL_ERROR "${DIGESTS}: bad line '${line}'")
    endif()
    list(APPEND expected "${CMAKE_MATCH_2}")
    set(digest_${CMAKE_MATCH_2} "${CMAKE_MATCH_1}")
  endforeach()
endif()
list(SORT expected)
file(GLOB written RELATIVE "${OUT}" "${OUT}/*")
list(SORT written)
if(NOT written STREQUAL expected)
  message(FATAL_ERROR
    "`${PROGRAM} ${configured}` wrote [${written}], expected [${expected}]")
endif()

set(failed)
foreach(name IN LISTS expected)
  if(GOLDEN_DIR)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${GOLDEN_DIR}/${name}" "${OUT}/${name}"
                    RESULT_VARIABLE differs)
  else()
    file(SHA256 "${OUT}/${name}" actual)
    if(actual STREQUAL "${digest_${name}}")
      set(differs 0)
    else()
      set(differs 1)
      message(STATUS "${name}: sha256 ${actual}, expected ${digest_${name}}")
    endif()
  endif()
  if(differs)
    list(APPEND failed "${name}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR
    "`${PROGRAM} ${configured}` wrote files that differ from the golden "
    "set: ${failed} (kept under ${OUT})")
endif()
