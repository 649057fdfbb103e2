# Malformed or out-of-range CLI values must fail closed with a usage error
# (exit 2) - never run a default scenario, run zero attempts, or abort.
#
#   cmake -DUNLOCK_CLI=<wearlock_unlock_cli> -DFLEET=<wearlock_fleet>
#         -DMODEM_CLI=<wearlock_modem_cli> -DTELEMETRY=<wearlock_telemetry>
#         -DBENCH=<any bench binary> -DROLLUP=<a rollup JSON>
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
# Non-finite spec values, which would slip past every range check.
expect_usage_error(${UNLOCK_CLI} --impairments sro=nan)
expect_usage_error(${UNLOCK_CLI} --attack relay@nan)
expect_usage_error(${UNLOCK_CLI} --faults clip=inf)
expect_usage_error(${FLEET} --sessions 3 --impairments "|doppler=nan"
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${FLEET} --sessions 3 --attacks "|relay:delay=inf"
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${FLEET} --sessions 3 --faults "|drop=nan"
                   --out ${WORK_DIR}/never.json)
# Contending pairs are the pairs=N impairment; there is no --pairs flag.
expect_usage_error(${FLEET} --sessions 3 --pairs 2
                   --out ${WORK_DIR}/never.json)
# Malformed or out-of-range scalar values.
expect_usage_error(${UNLOCK_CLI} --distance 0.4m)
expect_usage_error(${UNLOCK_CLI} --distance 0.05)
expect_usage_error(${FLEET} --sessions 3 --distances 0.05
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${UNLOCK_CLI} --attempts two)
expect_usage_error(${UNLOCK_CLI} --attempts 0)
# Retry budgets past INT_MAX are refused, never wrapped to 1 or negative.
expect_usage_error(${FLEET} --sessions 3 --retries 4294967297
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${FLEET} --sessions 3 --retries 2147483648
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${UNLOCK_CLI} --config 7)
expect_usage_error(${UNLOCK_CLI} --env kitchen)
expect_usage_error(${UNLOCK_CLI} --activity jogging)
# Unknown modem names and malformed numbers. The recv probe reads a real
# Hamming-coded frame, so only the misspelt code name can fail it; the
# send probe must exit before it writes its WAV.
execute_process(COMMAND ${MODEM_CLI} send hi ${WORK_DIR}/probe-hamming.wav
                        qpsk hamming
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(SEND_ERROR "modem CLI could not write the probe frame: '${rc}'")
endif()
file(REMOVE ${WORK_DIR}/never.wav)
expect_usage_error(${MODEM_CLI} send hi ${WORK_DIR}/never.wav qpks)
if(EXISTS ${WORK_DIR}/never.wav)
  message(SEND_ERROR "modem CLI wrote a WAV before rejecting its arguments")
endif()
expect_usage_error(${MODEM_CLI} send hi ${WORK_DIR}/never.wav qpsk hamimng)
expect_usage_error(${MODEM_CLI} recv ${WORK_DIR}/probe-hamming.wav qpsk
                   hamimng)
expect_usage_error(${MODEM_CLI} --threads abc --regen-golden)
# Worker counts above sim::ParallelExecutor::kMaxThreads (256) are
# refused before any thread starts.
expect_usage_error(${FLEET} --sessions 1 --threads 257
                   --out ${WORK_DIR}/never.json)
expect_usage_error(${MODEM_CLI} --threads 257 --regen-golden)
expect_usage_error(${BENCH} --quick --threads 257)
expect_usage_error(${TELEMETRY} --diff ${ROLLUP} ${ROLLUP} --threshold -5)
expect_usage_error(${TELEMETRY} --diff ${ROLLUP} ${ROLLUP} --threshold abc)
expect_usage_error(${TELEMETRY} --diff ${ROLLUP} ${ROLLUP} --threshold inf)
expect_usage_error(${TELEMETRY} --diff ${ROLLUP} ${ROLLUP} --threshold)
# Every sketch has accuracy 0.01; a rollup claiming another is refused,
# alone or merged with a 0.01 rollup.
file(READ ${ROLLUP} rollup_text)
string(REPLACE "\"a\":0.01," "\"a\":0.05," coarse_text "${rollup_text}")
file(WRITE ${WORK_DIR}/rollup-a0.05.json "${coarse_text}")
expect_usage_error(${TELEMETRY} --rollup ${WORK_DIR}/rollup-a0.05.json)
expect_usage_error(${TELEMETRY} --rollup ${ROLLUP}
                   --rollup ${WORK_DIR}/rollup-a0.05.json)
