// Crowded-world channel sweep: unlock outcome vs channel impairment,
// hardened receiver vs naive. Not a paper figure - the companion curve
// to docs/channels.md: each row is one ImpairmentPlan spec (clean,
// accumulated clock drift, a walking-speed Doppler warp, an office
// reverb tail, 2-pair contention, and the whole pack at once), and the
// table shows what the drift tracking + acoustic MAC + sub-band
// reselection buy over a fixed-window, MAC-less receiver.
//
// Grid: impairment spec (rows) x independent trials (cols). Every cell
// runs the SAME seeded scenario twice - hardening enabled, then
// enable_channel_hardening = false - so the two rate columns differ only
// by the receiver. Hardened sessions report through the fleet-telemetry
// pipeline (the impairment spec is a cohort-key axis), keeping the
// Wilson intervals consistent with wearlock_fleet rollups.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/rollup.h"
#include "protocol/session.h"

namespace {
using namespace wearlock;

struct CellResult {
  obs::SessionRecord hardened;
  bool naive_unlocked = false;
};

CellResult RunCell(const std::string& spec, std::uint64_t seed) {
  protocol::ScenarioConfig config = protocol::ScenarioConfig::Config1();
  config.scene.environment = audio::Environment::kQuietRoom;
  config.scene.distance_m = 0.3;
  config.seed = seed;
  if (!spec.empty()) config.impairments = audio::ImpairmentPlan::Parse(spec);

  CellResult result;
  {
    protocol::UnlockSession session(config);
    session.SetRecordSink(
        [&result](const obs::SessionRecord& r) { result.hardened = r; });
    session.Attempt();
  }
  {
    protocol::ScenarioConfig naive = config;
    naive.phone.enable_channel_hardening = false;
    protocol::UnlockSession session(naive);
    result.naive_unlocked = session.Attempt().unlocked;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/8600);
  bench::Banner(
      "Channel hardening: unlock outcome vs impairment, hardened vs naive "
      "receiver (Config 1, quiet room, 30 cm)");

  const std::vector<std::string> specs = options.Trim(std::vector<std::string>{
      "", "sro=50", "doppler=1.4", "reverb=350", "pairs=2",
      "sro=60,reverb=250,pairs=2,burst=0.6x10"});
  const std::size_t trials = static_cast<std::size_t>(options.Rounds(12));

  bench::SweepRunner runner(options);
  const auto results = runner.RunGrid(
      specs.size(), trials,
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng&) {
        // Seed from grid coordinates, not the task rng: the cell must
        // replay bit-identically from the CLI via --seed.
        const std::uint64_t seed =
            options.base_seed + point.row * 1000 + point.col;
        return RunCell(specs[point.row], seed);
      });
  runner.PrintTiming("channel_sweep");

  // Hardened records roll up through the telemetry sink; each spec is
  // its own cohort because the impairment spec is a cohort-key axis.
  obs::TelemetrySink sink;
  for (const CellResult& result : results) sink.Ingest(result.hardened);

  std::vector<std::string> header = {"impairments", "hardened rate",
                                     "95% CI",      "naive rate",
                                     "total p50/p99 ms", "outcomes"};
  std::vector<std::vector<std::string>> rows;
  for (std::size_t row = 0; row < specs.size(); ++row) {
    const std::string key =
        obs::DefaultCohortKey(results[row * trials].hardened);
    const auto it = sink.cohorts().find(key);
    if (it == sink.cohorts().end()) continue;  // cannot happen: just ingested
    const auto& cohort = it->second;
    const obs::WilsonInterval unlock = cohort.UnlockRate();
    std::size_t naive_unlocks = 0;
    for (std::size_t col = 0; col < trials; ++col) {
      if (results[row * trials + col].naive_unlocked) ++naive_unlocks;
    }
    std::string dist;
    for (const auto& [name, count] : cohort.outcomes) {
      if (!dist.empty()) dist += ", ";
      dist += name + ":" + std::to_string(count);
    }
    const auto total = cohort.stages.find("total");
    const std::string p50p99 =
        total == cohort.stages.end()
            ? "n/a"
            : bench::Fmt(total->second.Quantile(0.50), 0) + " / " +
                  bench::Fmt(total->second.Quantile(0.99), 0);
    rows.push_back(
        {specs[row].empty() ? "(clean)" : specs[row],
         bench::Fmt(unlock.rate, 3),
         bench::Cat({"[", bench::Fmt(unlock.low, 3), ", ",
                     bench::Fmt(unlock.high, 3), "]"}),
         bench::Fmt(static_cast<double>(naive_unlocks) /
                        static_cast<double>(trials),
                    3),
         p50p99, dist});
  }
  bench::PrintTable(header, rows);

  std::printf(
      "\nReading: on a clean channel the two receivers are the same code\n"
      "path (hardening is inert without armed impairments). Under drift\n"
      "and contention the hardened column holds while the naive column\n"
      "collapses - the RX window guard plus sync-driven drift tracking\n"
      "recovers shifted/warped frames, and the acoustic MAC with\n"
      "carrier-sense sub-band reselection dodges co-channel neighbors.\n"
      "Impairments past the envelope fail closed as channel-unusable\n"
      "(docs/channels.md), never as a false accept.\n");
  return 0;
}
