# Telemetry golden replay: a seeded 200-session campaign through the
# fleet engine must roll up to tests/golden/telemetry_rollup.json byte for
# byte, at --threads 1 and at --threads 8. wearlock_telemetry --rollup
# re-serializes the document (adding its trailing newline).
#
#   cmake -DFLEET=<wearlock_fleet> -DTELEMETRY=<wearlock_telemetry>
#         -DGOLDEN=<telemetry_rollup.json> -DWORK_DIR=<dir>
#         -P telemetry_replay.cmake
foreach(threads 1 8)
  set(raw ${WORK_DIR}/telemetry-replay-t${threads}.raw.json)
  set(rollup ${WORK_DIR}/telemetry-replay-t${threads}.json)
  execute_process(
    COMMAND ${FLEET} --sessions 200 --seed 77 --configs 1 --envs office
            --distances 0.4 --retries 1 --impostor-every 0
            --threads ${threads} --out ${raw}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wearlock_fleet --threads ${threads} exited ${rc}")
  endif()
  execute_process(
    COMMAND ${TELEMETRY} --rollup ${raw} --out ${rollup}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "wearlock_telemetry --rollup exited ${rc}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${rollup} ${GOLDEN}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${rollup} differs from ${GOLDEN} at --threads ${threads}")
  endif()
endforeach()
