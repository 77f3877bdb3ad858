# Runs one bench/example binary and checks how it ended. Three modes:
#
#   cmake -DBIN=<exe> -DARGS="<flags>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P check_output.cmake
#     the run must exit 0 and its stdout must equal GOLDEN byte for byte
#     (stdout is kept in ACTUAL for diffing on a mismatch);
#
#   cmake -DBIN=<exe> -DARGS="<flags>" -DSTDOUT_MATCH=<re>
#         -P check_output.cmake
#     the run must exit 0 and print something matching <re> on stdout;
#
#   cmake -DBIN=<exe> -DARGS="<flags>" -DEXIT_CODE=<n> -DSTDERR_MATCH=<re>
#         -P check_output.cmake
#     the run must exit n and print something matching <re> on stderr.
#
# ARGS is one space-separated string (split UNIX-shell style).
separate_arguments(args UNIX_COMMAND "${ARGS}")

if(DEFINED GOLDEN)
  execute_process(COMMAND "${BIN}" ${args}
                  OUTPUT_FILE "${ACTUAL}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}'")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${ACTUAL}" "${GOLDEN}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from the golden "
                        "file\n  diff ${GOLDEN} ${ACTUAL}")
  endif()
elseif(DEFINED STDOUT_MATCH)
  execute_process(COMMAND "${BIN}" ${args}
                  OUTPUT_VARIABLE out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}'")
  endif()
  if(NOT out MATCHES "${STDOUT_MATCH}")
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} does not match "
                        "'${STDOUT_MATCH}':\n${out}")
  endif()
else()
  execute_process(COMMAND "${BIN}" ${args}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL EXIT_CODE)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}', expected "
                        "${EXIT_CODE}; stderr:\n${err}")
  endif()
  if(NOT err MATCHES "${STDERR_MATCH}")
    message(FATAL_ERROR "stderr of ${BIN} ${ARGS} does not match "
                        "'${STDERR_MATCH}':\n${err}")
  endif()
endif()
