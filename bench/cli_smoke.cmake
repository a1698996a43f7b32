# Run BIN with one bad flag ARG (default: an undeclared flag); pass
# only if it exits 1 and its stderr names the flag (MATCH, default
# ARG).
#
#   cmake -DBIN=path/to/harness [-DARG=--seeds=-1 -DMATCH=--seeds]
#         -P cli_smoke.cmake
if(NOT DEFINED ARG)
    set(ARG --no-such-flag)
endif()
if(NOT DEFINED MATCH)
    set(MATCH ${ARG})
endif()
execute_process(COMMAND ${BIN} ${ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "${BIN} ${ARG}: exit ${rc}, stderr: ${err}")
endif()
