// Fleet campaign engine determinism (protocol/fleet.h): a campaign's
// rollup is a pure function of its spec - never of the thread count,
// the shard size, or the order shard sinks merge. Modeled compute is a
// function of the seed too, so the gate is a byte-diff (the same
// discipline as the telemetry_golden_replay test). Each case runs as
// its own ctest test, so `ctest -j` spreads them; golden_file.h says
// how to regenerate the committed rollup.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "golden_file.h"
#include "protocol/fleet.h"

namespace wearlock {
namespace {

using protocol::CampaignResult;
using protocol::CampaignSpec;
using protocol::MakeShards;
using protocol::PlanSession;
using protocol::RunCampaign;
using protocol::RunShard;
using protocol::SessionPlan;
using protocol::ShardRange;
using protocol::ShardResult;

/// The mini-campaign every determinism check replays: all five cohort
/// axes populated (including a faulted and an attacked cell), small
/// enough for sanitizer legs.
CampaignSpec MiniSpec() {
  CampaignSpec spec;
  spec.sessions = 96;
  spec.seed = 20260808;
  spec.fault_specs = {"", "drop=0.3"};
  spec.attack_specs = {"", "replay@0.5"};
  spec.sessions_per_shard = 32;
  return spec;
}

/// The wlbench fleet_hostile shape in miniature: probe attacks, dropped
/// control messages with a retry budget, and the crowded-channel
/// impairments, at the benchmark's 32-session shards. Its golden pins
/// the probe agent's and the scene's rendering byte for byte.
CampaignSpec HostileSpec() {
  CampaignSpec spec;
  spec.sessions = 48;
  spec.seed = 20261019;
  spec.max_retries = 2;
  spec.fault_specs = {"", "drop=0.3"};
  spec.attack_specs = {"", "probe"};
  spec.impairment_specs = {"", "sro=50,reverb=400,pairs=2"};
  spec.sessions_per_shard = 32;
  return spec;
}

std::string RollupBytes(const CampaignResult& result) {
  std::ostringstream os;
  result.sink.WriteJson(os);
  return os.str();
}

TEST(FleetDeterminismTest, PlanSessionIsAPureFunctionOfTheIndex) {
  const CampaignSpec spec = MiniSpec();
  ASSERT_EQ(spec.CellCount(), 48u);

  // Consecutive indices cycle every cell before any repeats, seeds are
  // all distinct, and the impostor cadence lands where it should.
  std::set<std::string> cohort_shapes;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < spec.CellCount(); ++i) {
    const SessionPlan plan = PlanSession(spec, i);
    std::ostringstream shape;
    shape << plan.scenario.label << "|"
          << audio::ToString(plan.scenario.scene.environment) << "|"
          << plan.scenario.scene.distance_m << "|"
          << plan.scenario.faults.spec << "|" << plan.attack.spec;
    cohort_shapes.insert(shape.str());
    seeds.insert(plan.scenario.seed);
    EXPECT_EQ(plan.scenario.same_body,
              i % spec.impostor_every != spec.impostor_every - 1);
  }
  EXPECT_EQ(cohort_shapes.size(), spec.CellCount());
  EXPECT_EQ(seeds.size(), spec.CellCount());

  // Replaying any index gives the identical plan (sharding never feeds
  // into it).
  for (std::size_t i : {0u, 7u, 47u, 48u, 95u}) {
    const SessionPlan a = PlanSession(spec, i);
    const SessionPlan b = PlanSession(spec, i);
    EXPECT_EQ(a.scenario.seed, b.scenario.seed);
    EXPECT_EQ(a.scenario.label, b.scenario.label);
    EXPECT_EQ(a.attack.spec, b.attack.spec);
  }
}

TEST(FleetDeterminismTest, RollupBytesIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = MiniSpec();
  const CampaignResult serial = RunCampaign(spec, 1);
  EXPECT_EQ(serial.sessions, spec.sessions);
  EXPECT_EQ(serial.shards, 3u);
  EXPECT_GT(serial.queue_events, serial.sessions)
      << "multiplexed sessions must each contribute multiple slices";

  const std::string golden = RollupBytes(serial);
  for (std::size_t threads : {2u, 8u}) {
    const CampaignResult wide = RunCampaign(spec, threads);
    EXPECT_EQ(RollupBytes(wide), golden) << threads << " threads";
    EXPECT_EQ(wide.sessions, serial.sessions);
    EXPECT_EQ(wide.queue_events, serial.queue_events);
  }
}

TEST(FleetDeterminismTest, EveryCohortCountsEachOfItsSessionsOnce) {
  const CampaignSpec spec = MiniSpec();
  const CampaignResult result = RunCampaign(spec, 2);
  std::uint64_t genuine = 0;
  std::uint64_t impostor = 0;
  for (const auto& [key, cohort] : result.sink.cohorts()) {
    genuine += cohort.genuine;
    impostor += cohort.impostor;
    // Every cohort exposes a total-latency sketch with as many
    // observations as sessions.
    ASSERT_NE(cohort.stages.find("total"), cohort.stages.end()) << key;
    EXPECT_EQ(cohort.stages.at("total").count(), cohort.sessions) << key;
  }
  EXPECT_EQ(genuine + impostor, spec.sessions);
  EXPECT_GT(genuine, 0u);
  EXPECT_GT(impostor, 0u);  // impostor cadence plus the attacked cells
}

TEST(FleetDeterminismTest, RollupBytesIdenticalAcrossShardSizes) {
  // Shard boundaries only decide which queue multiplexes a session,
  // never what the session does - including the ragged-final-shard and
  // one-session-per-shard extremes.
  CampaignSpec spec = MiniSpec();
  const std::string golden = RollupBytes(RunCampaign(spec, 2));
  for (std::size_t per_shard : {7u, 96u, 1u}) {
    spec.sessions_per_shard = per_shard;
    EXPECT_EQ(RollupBytes(RunCampaign(spec, 2)), golden)
        << per_shard << " sessions per shard";
  }
}

TEST(FleetDeterminismTest, ShardMergeOrderIsIrrelevant) {
  const CampaignSpec spec = MiniSpec();
  const std::vector<ShardRange> shards =
      MakeShards(spec.sessions, spec.sessions_per_shard);
  ASSERT_EQ(shards.size(), 3u);

  // Merge the shard sinks forward and reversed; same bytes.
  std::vector<ShardResult> results;
  for (const ShardRange& range : shards) {
    results.push_back(RunShard(spec, range));
  }
  CampaignResult forward;
  for (ShardResult& shard : results) forward.sink.Merge(shard.sink);
  CampaignResult reversed;
  for (std::size_t i = results.size(); i > 0; --i) {
    reversed.sink.Merge(results[i - 1].sink);
  }
  EXPECT_EQ(RollupBytes(forward), RollupBytes(reversed));
  EXPECT_EQ(RollupBytes(forward), RollupBytes(RunCampaign(spec, 1)));
}

TEST(FleetDeterminismTest, MatchesCommittedGoldenRollup) {
  testing::ExpectMatchesGolden(RollupBytes(RunCampaign(MiniSpec(), 2)),
                               "fleet_rollup.json");
}

TEST(FleetDeterminismTest, HostileShapeMatchesCommittedGoldenRollup) {
  testing::ExpectMatchesGolden(RollupBytes(RunCampaign(HostileSpec(), 2)),
                               "fleet_hostile_rollup.json");
}

}  // namespace
}  // namespace wearlock
