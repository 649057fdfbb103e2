// State-machine / blocking-path equivalence: the tentpole gate for the
// event-driven refactor (docs/architecture.md).
//
// UnlockSession::Attempt is a synchronous shim that drives one
// AttemptMachine to completion on a private queue; StartAsync schedules
// the same machine on a *shared* queue where thousands of sessions
// interleave at stage boundaries. The clock doctrine says interleaving
// must be invisible: each session advances only its own VirtualClock,
// by its own waits, when its own events fire. This suite pins that
// claim - byte-identical outcome fingerprints between the two paths -
// across the fault matrix, distance-bounding cells, impostor cells and
// the retry ladder.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "protocol/session.h"
#include "sim/event_queue.h"
#include "sim/faults.h"

namespace wearlock {
namespace {

using protocol::ScenarioConfig;
using protocol::UnlockReport;
using protocol::UnlockSession;

// The fault matrix's axes (fault_matrix_test.cpp), reused verbatim so
// the equivalence gate covers the same cells the robustness gate pins.
const char* const kFaultSpecs[] = {
    "drop=0.3",
    "spike=0.6x12,dup=0.3",
    "flap@any",
    "trunc=0.35",
};

ScenarioConfig ConfigByIndex(int which) {
  switch (which) {
    case 0: return ScenarioConfig::Config1();
    case 1: return ScenarioConfig::Config2();
    default: return ScenarioConfig::Config3();
  }
}

/// The cell grid: 12 faulted cells (fault matrix), 3 distance-bounding
/// cells (security matrix's defended geometry, no attacker), 3 impostor
/// cells (cross-body motion). Seeds match the source matrices.
constexpr int kFaultCells = 12;
constexpr int kBoundingCells = 3;
constexpr int kImpostorCells = 3;
constexpr int kNumCells = kFaultCells + kBoundingCells + kImpostorCells;

ScenarioConfig CellScenario(int cell) {
  if (cell < kFaultCells) {
    ScenarioConfig c = ConfigByIndex(cell % 3);
    c.scene.environment = audio::Environment::kQuietRoom;
    c.scene.distance_m = 0.3;
    c.faults = sim::FaultPlan::Parse(kFaultSpecs[cell / 3]);
    c.seed = 7000 + static_cast<std::uint64_t>(cell);
    return c;
  }
  if (cell < kFaultCells + kBoundingCells) {
    const int which = cell - kFaultCells;
    ScenarioConfig c = ConfigByIndex(which);
    c.scene.environment = audio::Environment::kQuietRoom;
    c.scene.distance_m = 0.4;
    c.phone.enable_distance_bounding = true;
    c.seed = 9000 + static_cast<std::uint64_t>(which);
    return c;
  }
  const int which = cell - kFaultCells - kBoundingCells;
  ScenarioConfig c = ConfigByIndex(which);
  c.scene.environment = audio::Environment::kOffice;
  c.scene.distance_m = 0.4;
  c.same_body = false;
  c.seed = 11000 + static_cast<std::uint64_t>(which);
  return c;
}

/// Everything about an attempt that must not depend on which queue the
/// machine ran on: the decisions (outcome, signal statistics, step
/// order, span order, fault sequence) and the session's own modeled
/// timeline (step stamps, phase timings) must match byte for byte.
std::string Fingerprint(UnlockSession& session, const UnlockReport& report) {
  std::ostringstream fp;
  fp << std::hexfloat;
  fp << ToString(report.outcome) << "|" << report.unlocked << "|"
     << report.token_ber << "|" << report.required_ber << "|"
     << report.pilot_snr_db << "|" << report.preamble_score << "|"
     << report.ambient_similarity << "|" << report.timings.total_ms()
     << "|steps:";
  for (const auto& step : report.trace) {
    fp << step.step << "@" << step.at_ms << "=" << step.detail << ";";
  }
  fp << "|spans:";
  for (const auto& span : session.tracer().spans()) fp << span.name << ",";
  fp << "|faults:";
  if (session.faults() != nullptr) {
    for (const auto& event : session.faults()->events()) {
      fp << ToString(event.kind) << "@" << event.stage << "=" << event.value
         << ";";
    }
  }
  return fp.str();
}

/// The legacy path: one blocking Attempt (or press-and-retry round) on
/// a fresh session.
std::string BlockingFingerprint(int cell, int max_retries) {
  UnlockSession session(CellScenario(cell));
  const UnlockReport report = max_retries > 0
                                  ? session.AttemptWithRetries(max_retries)
                                  : session.Attempt();
  return Fingerprint(session, report);
}

/// The multiplexed path: every cell's session starts at t=0 on ONE
/// shared queue, so their stage boundaries interleave; fingerprints are
/// read back after the common drain.
std::vector<std::string> MultiplexedFingerprints(int max_retries) {
  sim::EventQueue queue;
  std::vector<std::unique_ptr<UnlockSession>> sessions;
  std::vector<UnlockReport> reports(kNumCells);
  int finished = 0;
  sessions.reserve(kNumCells);
  for (int cell = 0; cell < kNumCells; ++cell) {
    sessions.push_back(std::make_unique<UnlockSession>(CellScenario(cell)));
    UnlockReport& slot = reports[static_cast<std::size_t>(cell)];
    sessions.back()->StartAsync(queue, max_retries, {},
                                [&slot, &finished](const UnlockReport& report) {
                                  slot = report;
                                  ++finished;
                                });
  }
  const std::size_t events = queue.RunUntilIdle();
  // Multiplexing really happened: every session contributed multiple
  // slices to the shared drain.
  EXPECT_GT(events, static_cast<std::size_t>(kNumCells) * 2);
  EXPECT_EQ(finished, kNumCells);  // every round reported completion

  std::vector<std::string> fps;
  fps.reserve(kNumCells);
  for (int cell = 0; cell < kNumCells; ++cell) {
    fps.push_back(Fingerprint(*sessions[static_cast<std::size_t>(cell)],
                              reports[static_cast<std::size_t>(cell)]));
  }
  return fps;
}

TEST(FleetEquivalenceTest, MultiplexedMatchesBlockingPerCell) {
  const std::vector<std::string> multiplexed =
      MultiplexedFingerprints(/*max_retries=*/0);
  for (int cell = 0; cell < kNumCells; ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    const std::string blocking = BlockingFingerprint(cell, /*max_retries=*/0);
    EXPECT_FALSE(blocking.empty());
    EXPECT_EQ(blocking, multiplexed[static_cast<std::size_t>(cell)]);
  }
}

TEST(FleetEquivalenceTest, RetryLadderMatchesBlockingPerCell) {
  // Same gate through the press-and-retry ladder: backoff waits become
  // scheduled events, retries rebuild the machine inside the backoff
  // callback - none of which may leak into the outcome.
  const std::vector<std::string> multiplexed =
      MultiplexedFingerprints(/*max_retries=*/2);
  for (int cell = 0; cell < kNumCells; ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    EXPECT_EQ(BlockingFingerprint(cell, /*max_retries=*/2),
              multiplexed[static_cast<std::size_t>(cell)]);
  }
}

TEST(FleetEquivalenceTest, SharedQueueOrderDoesNotLeakAcrossSessions) {
  // Start the same cells in reverse order on the shared queue: the
  // interleaving changes completely, the fingerprints must not.
  sim::EventQueue queue;
  std::vector<std::unique_ptr<UnlockSession>> sessions(kNumCells);
  std::vector<UnlockReport> reports(kNumCells);
  for (int cell = kNumCells - 1; cell >= 0; --cell) {
    sessions[static_cast<std::size_t>(cell)] =
        std::make_unique<UnlockSession>(CellScenario(cell));
    UnlockReport& slot = reports[static_cast<std::size_t>(cell)];
    sessions[static_cast<std::size_t>(cell)]->StartAsync(
        queue, 0, {}, [&slot](const UnlockReport& report) { slot = report; });
  }
  (void)queue.RunUntilIdle();

  const std::vector<std::string> forward = MultiplexedFingerprints(0);
  for (int cell = 0; cell < kNumCells; ++cell) {
    SCOPED_TRACE("cell " + std::to_string(cell));
    EXPECT_EQ(Fingerprint(*sessions[static_cast<std::size_t>(cell)],
                          reports[static_cast<std::size_t>(cell)]),
              forward[static_cast<std::size_t>(cell)]);
  }
}

}  // namespace
}  // namespace wearlock
