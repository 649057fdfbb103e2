# CLI golden replays: each committed golden trace must be reproducible
# from the command line with one seed (the repro path for a red matrix
# cell). Every run must exit 0 - for the relay run, the defense held -
# and match its golden byte for byte, "at_ms" timestamps included.
#
#   cmake -DUNLOCK_CLI=<wearlock_unlock_cli> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<dir> -P cli_golden_replay.cmake
function(replay name golden trace_flag)
  set(trace ${WORK_DIR}/${name}-replay.jsonl)
  execute_process(COMMAND ${UNLOCK_CLI} ${ARGN} ${trace_flag} ${trace}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} replay exited ${rc}")
    return()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${trace}
                          ${GOLDEN_DIR}/${golden}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${trace} differs from ${GOLDEN_DIR}/${golden}")
  endif()
endfunction()

replay(fault faulted_unlock_trace.jsonl --fault-trace
       --faults drop=0.35,dup=0.3,spike=0.5x10,trunc=0.7 --seed 10)
replay(relay relay_attack_trace.jsonl --attack-trace
       --attack relay@3.0:delay=3:gain=40 --seed 4242)
replay(impaired impaired_unlock_trace.jsonl --channel-trace
       --impairments sro=60,reverb=250,pairs=2,burst=0.6x10 --seed 7)
