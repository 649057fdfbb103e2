#!/usr/bin/env bash
# Local CI: the checks a PR must pass. Tier-1 (ctest) carries the
# correctness contract - goldens (trace timestamps included), CLI golden
# replays, --threads 1-vs-8 stdout diffs, fleet and telemetry rollups,
# and the wearlock-lint gate (build/lint.sarif, its 10s budget as the
# test TIMEOUT, and its --threads 1 vs 8 byte-identity). Modeled time is
# a function of the seed alone, so no step pins host timing. This
# script adds the rest:
#   1. plain build (warnings-as-errors) + full ctest (its
#      bench_smoke_fig5_ber_ebn0 runs fig5 at one thread, the
#      zero-allocation steady-state gate; docs/perf.md)
#   2. bench report: fig5 --json at 1 and 8 threads collected into
#      BENCH_dsp_core.json
#   3. bench report: fleet throughput (BENCH_fleet.json)
#   4. contention campaign: a >=10k-session rollup that must byte-match
#      across --threads 1/2/8 and shard sizes, and BENCH_channel.json
#      (min-of-3 per thread count) (docs/channels.md)
#   5. one build+test leg per sanitizer: ASan, UBSan, TSan (the TSan
#      leg gets real cross-thread traffic from concurrency_stress_test,
#      executor_test, fft_plan_test, spectrum_cache_test, audio_test's
#      phase-ripple table race, fault_matrix_test, security_matrix_test,
#      channel_matrix_test -
#      the shared-scene mixer under contention - and the fleet multiplexer at
#      WEARLOCK_THREADS=8, and a parallel bench sweep)
#
# Usage: tools/ci.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
SKIP_SAN=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SAN=1

# The single source of truth for sanitizer coverage; --skip-sanitizers
# skips exactly this list and nothing else.
SANITIZERS=(address undefined thread)

banner() { printf '\n==== %s ====\n' "$1"; }

banner "plain build + full test suite"
cmake -B build -S . -DWEARLOCK_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

banner "bench report: fig5 timing JSON (BENCH_dsp_core.json)"
# One timed quick sweep per thread count, each writing the schema
# checked by bench_json_test; the two reports are collected side by side
# so the committed artifact records serial and parallel wall time. (The
# zero-allocation gate is Tier-1's bench_smoke_fig5_ber_ebn0.)
build/bench/fig5_ber_ebn0 --quick --threads 1 \
    --json build/fig5-t1.json >/dev/null
build/bench/fig5_ber_ebn0 --quick --threads 8 \
    --json build/fig5-t8.json >/dev/null
{
  printf '{"bench_suite":"dsp_core","reports":[\n'
  cat build/fig5-t1.json
  printf ',\n'
  cat build/fig5-t8.json
  printf ']}\n'
} >BENCH_dsp_core.json
echo "wrote BENCH_dsp_core.json"

banner "bench report: fleet throughput JSON (BENCH_fleet.json)"
# Min-of-3 campaign rounds per thread count; the bench itself verifies
# every round rolls up byte-identically before reporting sessions/sec.
build/bench/fleet_throughput --threads 1 \
    --json build/fleet-bench-t1.json >/dev/null
build/bench/fleet_throughput --threads 8 \
    --json build/fleet-bench-t8.json >/dev/null
{
  printf '{"bench_suite":"fleet","reports":[\n'
  cat build/fleet-bench-t1.json
  printf ',\n'
  cat build/fleet-bench-t8.json
  printf ']}\n'
} >BENCH_fleet.json
echo "wrote BENCH_fleet.json"

banner "contention campaign: rollup byte-identity across threads + shards"
# Contention campaign: >= 10k sessions cycling clean / drifted /
# 2-pair-contended cells. The rollup is a pure function of the spec -
# never of the thread count or shard layout.
run_contention() {  # $1 = thread count, $2 = shard size, $3 = out json
  build/tools/wearlock_fleet \
      --sessions 10080 --seed 424242 --threads "$1" --shard-size "$2" \
      --impairments '|sro=50|pairs=2' --out "$3"
}
run_contention 1 72 build/contention-t1.json
run_contention 2 72 build/contention-t2.json
run_contention 8 72 build/contention-t8.json
run_contention 8 504 build/contention-t8-wide.json
diff build/contention-t1.json build/contention-t2.json
diff build/contention-t1.json build/contention-t8.json
diff build/contention-t1.json build/contention-t8-wide.json
echo "contention campaign rollups byte-identical across threads + shards"

banner "bench report: channel sweep JSON (BENCH_channel.json)"
# Min-of-3 rounds per thread count: keep the report whose wall_ms is
# smallest, so the archived numbers reflect steady-state, not cache
# warmup or scheduler noise.
channel_bench_min3() {  # $1 = thread count, $2 = output json
  local best_ms="" best_file="" f ms
  for round in 1 2 3; do
    f="build/channel-bench-t$1-r$round.json"
    build/bench/channel_sweep --quick --threads "$1" --json "$f" >/dev/null
    ms=$(sed -n 's/.*"wall_ms":\([0-9.]*\).*/\1/p' "$f")
    if [[ -z "$best_ms" ]] || \
        awk -v a="$ms" -v b="$best_ms" 'BEGIN { exit !(a < b) }'; then
      best_ms="$ms"
      best_file="$f"
    fi
  done
  cp "$best_file" "$2"
}
channel_bench_min3 1 build/channel-bench-t1.json
channel_bench_min3 8 build/channel-bench-t8.json
{
  printf '{"bench_suite":"channel","reports":[\n'
  cat build/channel-bench-t1.json
  printf ',\n'
  cat build/channel-bench-t8.json
  printf ']}\n'
} >BENCH_channel.json
echo "wrote BENCH_channel.json"

if [[ "$SKIP_SAN" == "1" ]]; then
  echo "skipping sanitizer builds (--skip-sanitizers): ${SANITIZERS[*]}"
  exit 0
fi

for san in "${SANITIZERS[@]}"; do
  banner "sanitizer: $san"
  cmake -B "build-$san" -S . -DWEARLOCK_SANITIZE="$san" \
        -DWEARLOCK_WERROR=ON >/dev/null
  cmake --build "build-$san" -j "$JOBS"
  # Tier-1 (the full suite, per ROADMAP) including the obs suites.
  TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "build-$san" --output-on-failure
  if [[ "$san" == "thread" ]]; then
    # Extra TSan traffic through the executor: the determinism tests on
    # a wide pool, plus one real parallel sweep.
    banner "TSan: executor under WEARLOCK_THREADS=8"
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/executor_test"
    # PlanCache::Get under real contention (8 threads x shared plans),
    # and 8 threads racing on the first builds of the shared stage
    # twiddle tables.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/fft_plan_test"
    # SpectrumCache::Get likewise (8 threads x two preambles x two sizes).
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/spectrum_cache_test"
    # The speaker's PhaseRippleTable: 8 threads on a key's first use.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/audio_test" \
        --gtest_filter='PhaseRippleTable.*:Speaker.EmitMatches*'
    # The fault matrix's cross-thread determinism leg on a wide pool.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/fault_matrix_test"
    # The security matrix's attack agents on the same wide pool.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/security_matrix_test"
    # The channel matrix: impaired scenes (neighbor mixing, bursts,
    # MAC sensing) fanned across the wide pool - the shared-scene
    # mixer's cross-thread determinism leg.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/channel_matrix_test"
    # The fleet multiplexer: shards fanned across 8 real workers, each
    # draining its own event queue of interleaved sessions.
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/tests/fleet_determinism_test"
    TSAN_OPTIONS="halt_on_error=1" WEARLOCK_THREADS=8 \
        "build-$san/bench/fig7_ber_distance" --quick >/dev/null
  fi
done

banner "all green"
