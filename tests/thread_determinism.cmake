# Sweep tables are a pure function of the seed, never of the thread
# count (docs/parallelism.md): each bench's stdout (timing goes to
# stderr) must be byte-identical at --threads 1 and 8, channel_sweep's
# stage-latency quantiles included. The same holds for wearlock-lint's
# report over the tree: scheduling must never leak into diagnostics.
#
#   cmake -DFIG7=<fig7_ber_distance> -DATTACK_DISTANCE=<attack_distance>
#         -DCHANNEL_SWEEP=<channel_sweep> -DLINT=<wearlock-lint>
#         -DSOURCE_DIR=<repo root> -DWORK_DIR=<dir>
#         -P thread_determinism.cmake
function(expect_thread_invariant name)
  foreach(threads 1 8)
    execute_process(COMMAND ${ARGN} --threads ${threads}
                    OUTPUT_FILE ${WORK_DIR}/${name}-t${threads}.out
                    RESULT_VARIABLE rc ERROR_QUIET)
    if(NOT rc EQUAL 0)
      message(SEND_ERROR "${name} --threads ${threads} exited ${rc}")
      return()
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/${name}-t1.out ${WORK_DIR}/${name}-t8.out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} stdout differs between --threads 1 and 8")
  endif()
endfunction()

expect_thread_invariant(fig7 ${FIG7} --quick)
expect_thread_invariant(attack_distance ${ATTACK_DISTANCE} --quick)
expect_thread_invariant(channel_sweep ${CHANNEL_SWEEP} --quick)
expect_thread_invariant(lint ${LINT}
                        --baseline ${SOURCE_DIR}/tools/lint/baseline.txt
                        --slot-manifest ${SOURCE_DIR}/tools/lint/slot_owners.txt
                        ${SOURCE_DIR}/src ${SOURCE_DIR}/tests
                        ${SOURCE_DIR}/bench ${SOURCE_DIR}/tools
                        ${SOURCE_DIR}/examples
                        ${SOURCE_DIR}/wlbench/harness)
