# Malformed or out-of-range CLI values must fail closed with a usage error
# (exit 2) - never run a default scenario, run zero attempts, or abort.
#
#   cmake -DUNLOCK_CLI=<wearlock_unlock_cli> -DFLEET=<wearlock_fleet>
#         -DWORK_DIR=<dir> -P cli_usage_probes.cmake
function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    string(JOIN " " command ${ARGN})
    message(SEND_ERROR "expected exit 2, got '${rc}': ${command}")
  endif()
endfunction()

# Malformed specs.
expect_usage_error(${UNLOCK_CLI} --attack bogus)
expect_usage_error(${UNLOCK_CLI} --impairments bogus)
expect_usage_error(${FLEET} --sessions 3 --impairments "|sro=900"
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${FLEET} --sessions 3 --faults "drop=2"
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${FLEET} --sessions 3 --attacks "|relay@abc"
                   --out ${WORK_DIR}/never.json)
# Malformed or out-of-range scalar values.
expect_usage_error(${UNLOCK_CLI} --distance 0.4m)
expect_usage_error(${UNLOCK_CLI} --distance 0.05)
expect_usage_error(${FLEET} --sessions 3 --distances 0.05
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${UNLOCK_CLI} --attempts two)
expect_usage_error(${UNLOCK_CLI} --attempts 0)
expect_usage_error(${UNLOCK_CLI} --config 7)
expect_usage_error(${UNLOCK_CLI} --env kitchen)
expect_usage_error(${UNLOCK_CLI} --activity jogging)
