// Figure 12: total unlock delay of WearLock's three configurations vs.
// manually entering 4/6-digit PINs.
//
//   Config1: smartwatch offloads over WiFi to a Nexus 6 (fastest)
//   Config2: smartwatch offloads over Bluetooth to a Galaxy Nexus (slowest)
//   Config3: local processing on the Moto 360
//
// Paper result: WearLock beats 4-digit PIN entry by at least 17.7% even
// in the slowest configuration, and by at least 58.6% in the fastest.
//
// The three configs also report through the fleet-telemetry pipeline:
// every attempt emits a SessionRecord into a TelemetrySink, and a
// second table prints each config-cohort's Wilson unlock interval and
// sketch percentiles - the same numbers `wearlock_telemetry --cohorts`
// would recover from a --session-log of this run.
#include <cstdio>

#include "bench_util.h"
#include "dsp/stats.h"
#include "obs/rollup.h"
#include "protocol/session.h"

namespace {
using namespace wearlock;
using namespace wearlock::protocol;

dsp::Summary MeasureConfig(ScenarioConfig config, std::uint64_t seed,
                           int rounds, obs::TelemetrySink* sink) {
  config.seed = seed;
  config.scene.distance_m = 0.3;
  UnlockSession session(config);
  session.SetRecordSink(
      [sink](const obs::SessionRecord& record) { sink->Ingest(record); });
  for (int i = 0; i < rounds; ++i) {
    session.keyguard().Relock();
    (void)session.Attempt();
  }
  // The instrumented protocol records every successful unlock's total in
  // the session's metrics registry; read the figure from telemetry.
  return bench::SeriesSummary(session.metrics(), "protocol.unlock.total_ms");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/121);
  const int kRounds = options.Rounds(20);
  bench::Banner("Figure 12: total unlock delay vs manual PIN entry (20 rounds)");

  obs::TelemetrySink sink;
  const auto c1 = MeasureConfig(ScenarioConfig::Config1(), 121, kRounds, &sink);
  const auto c2 = MeasureConfig(ScenarioConfig::Config2(), 122, kRounds, &sink);
  const auto c3 = MeasureConfig(ScenarioConfig::Config3(), 123, kRounds, &sink);

  sim::Rng rng(124);
  std::vector<double> pin4, pin6;
  for (int i = 0; i < kRounds; ++i) {
    pin4.push_back(protocol::SamplePin4DigitMs(rng));
    pin6.push_back(protocol::SamplePin6DigitMs(rng));
  }
  const auto p4 = dsp::Summarize(pin4);
  const auto p6 = dsp::Summarize(pin6);

  bench::PrintTable(
      {"method", "mean(ms)", "median(ms)"},
      {{"Config1 (WiFi -> Nexus 6)", bench::Fmt(c1.mean, 0),
        bench::Fmt(c1.median, 0)},
       {"Config2 (BT -> Galaxy Nexus)", bench::Fmt(c2.mean, 0),
        bench::Fmt(c2.median, 0)},
       {"Config3 (local Moto 360)", bench::Fmt(c3.mean, 0),
        bench::Fmt(c3.median, 0)},
       {"manual 4-digit PIN", bench::Fmt(p4.mean, 0), bench::Fmt(p4.median, 0)},
       {"manual 6-digit PIN", bench::Fmt(p6.mean, 0), bench::Fmt(p6.median, 0)}});

  bench::Banner("Telemetry rollup view (per config cohort)");
  std::vector<std::vector<std::string>> cohort_rows;
  for (const auto& [key, cohort] : sink.cohorts()) {
    const obs::WilsonInterval unlock = cohort.UnlockRate();
    const auto total = cohort.stages.find("total");
    std::string p50, p90, p99;
    if (total != cohort.stages.end()) {
      p50 = bench::Fmt(total->second.Quantile(0.50), 0);
      p90 = bench::Fmt(total->second.Quantile(0.90), 0);
      p99 = bench::Fmt(total->second.Quantile(0.99), 0);
    }
    cohort_rows.push_back({key, bench::Fmt(unlock.rate, 3),
                           bench::Cat({"[", bench::Fmt(unlock.low, 3), ", ",
                                       bench::Fmt(unlock.high, 3), "]"}),
                           p50, p90, p99});
  }
  bench::PrintTable({"cohort", "unlock", "95% CI", "p50(ms)", "p90(ms)",
                     "p99(ms)"},
                    cohort_rows);

  const double fastest_speedup = 1.0 - c1.mean / p4.mean;
  const double slowest = std::max({c1.mean, c2.mean, c3.mean});
  const double slowest_speedup = 1.0 - slowest / p4.mean;
  std::printf(
      "\nspeedup vs 4-digit PIN: fastest config %.1f%%, slowest config %.1f%%\n"
      "Paper: >= 58.6%% (fastest, Config1) and >= 17.7%% (slowest).\n"
      "Also: WearLock only needs a power-button click, no manual input.\n",
      100.0 * fastest_speedup, 100.0 * slowest_speedup);
  return 0;
}
