// Attacker success vs. distance: the security decay figure.
//
// Puts every active attack archetype (attack_agents.h) at increasing
// standoff from the phone, with the full defense suite armed, and plots
// the attacker's success rate per (attack, distance) cell with Wilson
// CIs. Success flows through the real telemetry pipeline: each attacked
// session emits SessionRecords scoring the attacker (same_body=false,
// false_accept = "attacker won"), a TelemetrySink rolls them into
// per-attack cohorts, and the table reads FalseAcceptRate() back out of
// the sink - the same aggregation path a fleet campaign uses.
//
// Paper shape (§IV): the eavesdropper's token-recovery rate decays with
// distance (audible sound carries, but SNR does not), while replay,
// relay and overshadowing hold at zero at EVERY range - those cells are
// answered by freshness, distance bounding and token validation, not by
// acoustics running out of steam.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/rollup.h"
#include "protocol/attack_agents.h"
#include "protocol/session.h"
#include "sim/adversary.h"

namespace {
using namespace wearlock;

struct AttackColumn {
  const char* name;    ///< table header
  const char* prefix;  ///< spec up to the distance
  const char* suffix;  ///< spec after the distance
};

// The distance-parameterized attack grammar per column. The eavesdrop
// column uses a bare mic (gain=0) so the decay curve is visible inside
// the table's range; see security_eavesdropper for the gain sweep.
const AttackColumn kColumns[] = {
    {"eavesdrop", "eavesdrop@", ""},
    {"replay", "replay@", ":delay=400"},
    {"relay", "relay@", ":delay=3:gain=40"},
    {"overshadow", "overshadow@", ":level=6"},
};
constexpr std::size_t kNumColumns = sizeof(kColumns) / sizeof(kColumns[0]);

struct CellResult {
  std::string cohort_key;
  std::vector<obs::SessionRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::ParseBenchArgs(argc, argv, /*base_seed=*/424200);
  const int kRounds = options.Rounds(8);
  bench::Banner(
      "Security: attacker success vs. distance, full defense suite armed");

  const std::vector<double> distances =
      options.Trim(std::vector<double>{0.5, 1.0, 2.0, 3.0, 4.0});

  bench::SweepRunner runner(options);
  const auto cells = runner.RunGrid(
      distances.size(), kNumColumns,
      [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng&) {
        const AttackColumn& col = kColumns[point.col];
        const std::string spec_str = col.prefix +
                                     bench::Fmt(distances[point.row], 1) +
                                     col.suffix;
        const sim::AttackSpec spec = sim::AttackSpec::Parse(spec_str);
        CellResult cell;
        for (int r = 0; r < kRounds; ++r) {
          protocol::ScenarioConfig c = protocol::ScenarioConfig::Config1();
          // Seeds pinned per (cell, round): the table is a pure function
          // of --seed, byte-identical for any --threads value.
          c.seed = options.base_seed + point.index * 1000 + r;
          c.phone.enable_distance_bounding = true;
          const protocol::AttackReport rep =
              protocol::RunAttackScenario(c, spec);
          cell.records.insert(cell.records.end(), rep.records.begin(),
                              rep.records.end());
        }
        cell.cohort_key = obs::DefaultCohortKey(cell.records.front());
        return cell;
      });

  // The telemetry path proper: every attacked session's records into one
  // sink, success rates read back out of the cohort aggregates.
  obs::TelemetrySink sink;
  for (const CellResult& cell : cells) {
    for (const obs::SessionRecord& rec : cell.records) sink.Ingest(rec);
  }

  std::vector<std::string> header{"distance(m)"};
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    header.push_back(std::string(kColumns[c].name) + " success [95% CI]");
  }
  std::vector<std::vector<std::string>> rows;
  for (std::size_t d = 0; d < distances.size(); ++d) {
    std::vector<std::string> row{bench::Fmt(distances[d], 1)};
    for (std::size_t c = 0; c < kNumColumns; ++c) {
      const CellResult& cell = cells[d * kNumColumns + c];
      const auto& cohort = sink.cohorts().at(cell.cohort_key);
      const obs::WilsonInterval ci = cohort.FalseAcceptRate();
      row.push_back(bench::Fmt(ci.rate, 2) + " [" + bench::Fmt(ci.low, 2) +
                    "," + bench::Fmt(ci.high, 2) + "]");
    }
    rows.push_back(std::move(row));
  }
  bench::PrintTable(header, rows);

  std::printf(
      "\nPaper shape: only the eavesdropper's column moves with distance -\n"
      "token *recovery* decays as SNR falls, and even a perfect capture is\n"
      "stale (HOTP freshness). Replay/relay/overshadow stay at zero at every\n"
      "range: they are beaten by protocol defenses, not by acoustics.\n");
  return 0;
}
