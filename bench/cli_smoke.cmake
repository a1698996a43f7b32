# Run BIN with an undeclared flag; pass only if it exits 1 and its
# stderr names the flag.
#
#   cmake -DBIN=path/to/harness -P cli_smoke.cmake
execute_process(COMMAND ${BIN} --no-such-flag
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "--no-such-flag")
    message(FATAL_ERROR "${BIN} --no-such-flag: exit ${rc}, stderr: ${err}")
endif()
