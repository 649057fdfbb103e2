// Fleet multiplexer throughput: sessions/sec for an event-driven
// campaign (protocol/fleet.h) at the requested --threads, min-of-3
// rounds. Not a paper figure - this is the acceptance number for the
// virtual-clock multiplexer (docs/architecture.md): one thread per
// shard drives sessions_per_shard interleaved unlock attempts, so
// throughput is bounded by DSP work, not by blocked waits.
//
// Timing discipline: the campaign rounds run SEQUENTIALLY (the
// SweepRunner is pinned to one worker) while RunCampaign fans its
// shards across --threads; per-round wall time lands in the --json
// report, so BENCH_fleet.json records one timed round per entry.
// stdout carries only seed-determined rollup numbers and stays
// byte-identical across --threads; sessions/sec goes to stderr.
//
// Every round must also roll up byte-identically - the bench doubles
// as a cheap determinism gate and exits non-zero on a mismatch.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "protocol/fleet.h"

namespace {
using namespace wearlock;
}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/20260808);
  bench::Banner(
      "Fleet multiplexer throughput: event-driven unlock campaigns "
      "(config x env x distance grid, 10% impostors, drop=0.3 fault axis)");

  protocol::CampaignSpec spec;
  spec.seed = options.base_seed;
  spec.sessions = options.quick ? 120 : 1200;
  spec.fault_specs = {"", "drop=0.3"};
  const int rounds = options.Rounds(3);

  // One worker for the round loop: rounds are timed back to back, and
  // RunCampaign supplies its own shard-level parallelism at --threads,
  // which is the thread count the timing report stamps.
  bench::BenchOptions serial = options;
  serial.threads = 1;
  bench::SweepRunner runner(serial);
  runner.set_reported_threads(
      options.threads > 0 ? options.threads
                          : sim::ParallelExecutor::DefaultThreadCount());
  const auto results = runner.Run(
      static_cast<std::size_t>(rounds), [&](sim::TaskContext&) {
        const protocol::CampaignResult result =
            protocol::RunCampaign(spec, options.threads);
        std::ostringstream rollup;
        result.sink.WriteJson(rollup);
        return rollup.str();
      });
  runner.PrintTiming("fleet_throughput");

  for (std::size_t round = 1; round < results.size(); ++round) {
    if (results[round] != results[0]) {
      std::fprintf(stderr,
                   "round %zu rollup differs from round 0: the campaign "
                   "is not a pure function of the spec\n",
                   round);
      return 1;
    }
  }

  // Re-run the aggregates once (untimed) for the stdout table; every
  // number below derives from the seed alone.
  const protocol::CampaignResult result =
      protocol::RunCampaign(spec, options.threads);
  std::vector<std::string> header = {"cohort", "n", "unlock", "95% CI",
                                     "total p50/p99 ms"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, cohort] : result.sink.cohorts()) {
    const obs::WilsonInterval unlock = cohort.UnlockRate();
    const auto total = cohort.stages.find("total");
    const std::string p50p99 =
        total == cohort.stages.end()
            ? "n/a"
            : bench::Cat({bench::Fmt(total->second.Quantile(0.50), 0), " / ",
                          bench::Fmt(total->second.Quantile(0.99), 0)});
    rows.push_back({key, std::to_string(cohort.sessions),
                    bench::Fmt(unlock.rate, 3),
                    bench::Cat({"[", bench::Fmt(unlock.low, 3), ", ",
                                bench::Fmt(unlock.high, 3), "]"}),
                    p50p99});
  }
  bench::PrintTable(header, rows);
  std::printf(
      "\nSessions per round: %zu across %zu shards (%zu queue events);\n"
      "identical rollup bytes every round. Wall time and sessions/sec\n"
      "are on stderr and in the --json report (BENCH_fleet.json).\n",
      result.sessions, result.shards, result.queue_events);

  // The headline number, derived from the timed rounds: min-of-N wall
  // -> max sessions/sec. Timing only - stderr, like PrintTiming.
  const dsp::Summary points =
      bench::SeriesSummary(runner.metrics(), "bench.sweep.point_ms");
  std::fprintf(stderr,
               "fleet_throughput: %zu sessions/round, min %.0f ms/round, "
               "%.0f sessions/sec\n",
               result.sessions, points.min,
               points.min > 0.0 ? 1000.0 *
                                      static_cast<double>(result.sessions) /
                                      points.min
                                : 0.0);
  return 0;
}
