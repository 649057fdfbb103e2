// End-to-end telemetry: a full UnlockSession attempt must produce a
// complete, deterministic span timeline on the virtual clock plus the
// per-stage metrics the benches read, and both exports must be valid
// JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "json_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/session.h"
#include "sketch_fields.h"

namespace wearlock::protocol {
namespace {

ScenarioConfig NearbyQuiet() {
  ScenarioConfig config = ScenarioConfig::Config1();
  config.scene.distance_m = 0.3;
  return config;
}

TEST(ObsIntegration, AttemptEmitsTheProtocolStages) {
  UnlockSession session(NearbyQuiet());
  const UnlockReport report = session.Attempt();
  ASSERT_TRUE(report.unlocked);

  std::set<std::string> names;
  for (const auto& span : session.tracer().spans()) {
    names.insert(span.name);
    EXPECT_TRUE(span.finished) << span.name;
  }
  // The acceptance bar: one attempt shows every pipeline stage by name.
  const char* required[] = {
      "session.attempt",        "phase1.probe_tx",
      "phase1.probe_analysis",  "phase1.subchannel_select",
      "phase2.otp_generate",    "phase2.data_tx",
      "modem.sync.detect",      "phase2.demod",
      "phase2.token_validate",  "session.verdict",
  };
  for (const char* name : required) {
    EXPECT_TRUE(names.count(name)) << "missing span: " << name;
  }
  EXPECT_GE(names.size(), 8u);
}

TEST(ObsIntegration, SpanTimesLieOnTheVirtualClock) {
  UnlockSession session(NearbyQuiet());
  const UnlockReport report = session.Attempt();
  ASSERT_TRUE(report.unlocked);
  const double end = session.clock().now();
  std::size_t roots = 0;
  for (const auto& span : session.tracer().spans()) {
    EXPECT_GE(span.start_ms, 0.0);
    EXPECT_LE(span.end_ms, end);
    EXPECT_LE(span.start_ms, span.end_ms);
    if (span.parent == obs::SpanRecord::kNoParent) {
      ++roots;
      EXPECT_EQ(span.name, "session.attempt");
      // The root span covers the whole modeled attempt duration.
      EXPECT_DOUBLE_EQ(span.end_ms, end);
    } else {
      // Children are contained in their parent's interval.
      const auto& parent = session.tracer().spans()[span.parent];
      EXPECT_GE(span.start_ms, parent.start_ms);
      EXPECT_LE(span.end_ms, parent.end_ms);
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(ObsIntegration, SpanStructureIsDeterministicAcrossSameSeedSessions) {
  // The structure - which spans fire, their order, nesting, and
  // RNG-driven outcomes - must be identical for the same seed.
  auto run = [] {
    UnlockSession session(NearbyQuiet());
    (void)session.Attempt();
    std::ostringstream os;
    for (const auto& span : session.tracer().spans()) {
      os << span.name << "#" << span.depth << "#" << span.parent << ";";
    }
    os << "outcome=" << session.metrics()
                            .GetCounter("protocol.attempt.outcome.unlocked")
                            .value();
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

TEST(ObsIntegration, MetricsRecordTheAttempt) {
  UnlockSession session(NearbyQuiet());
  const UnlockReport report = session.Attempt();
  ASSERT_TRUE(report.unlocked);
  auto& metrics = session.metrics();
  EXPECT_EQ(metrics.GetCounter("protocol.attempt.calls").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("protocol.attempt.unlocked").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("protocol.attempt.outcome.unlocked").value(),
            1u);
  EXPECT_GE(metrics.GetCounter("modem.sync.calls").value(), 1u);
  EXPECT_GE(metrics.GetCounter("link.messages").value(), 2u);
  EXPECT_EQ(
      testing::SketchCount(metrics.GetSketch("protocol.attempt.total_ms")),
      1u);

  // The fig12 source of truth: exact totals for successful unlocks.
  const auto totals = metrics.SeriesValues("protocol.unlock.total_ms");
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_DOUBLE_EQ(totals[0], report.timings.total_ms());

  // Sub-channel BER attribution: every payload bit lands on one of the
  // plan's data bins (a 32-bit token on a 36-bit/symbol plan leaves the
  // highest-order bins empty, so per-bin counts may be zero).
  std::uint64_t attributed_bits = 0;
  for (const std::size_t bin : report.plan.data) {
    const std::string prefix = "modem.subchannel." + std::to_string(bin);
    attributed_bits += metrics.GetCounter(prefix + ".bits").value();
  }
  EXPECT_EQ(attributed_bits, 32u);
}

TEST(ObsIntegration, SessionsDoNotShareTelemetry) {
  UnlockSession a(NearbyQuiet());
  UnlockSession b(NearbyQuiet());
  (void)a.Attempt();
  EXPECT_EQ(a.metrics().GetCounter("protocol.attempt.calls").value(), 1u);
  EXPECT_EQ(b.metrics().GetCounter("protocol.attempt.calls").value(), 0u);
  EXPECT_TRUE(b.tracer().spans().empty());
}

TEST(ObsIntegration, FailedAttemptStillClosesEverySpan) {
  ScenarioConfig config = NearbyQuiet();
  config.wireless_connected = false;
  UnlockSession session(config);
  const UnlockReport report = session.Attempt();
  EXPECT_EQ(report.outcome, UnlockOutcome::kNoWirelessLink);
  ASSERT_FALSE(session.tracer().spans().empty());
  for (const auto& span : session.tracer().spans()) {
    EXPECT_TRUE(span.finished) << span.name;
  }
  EXPECT_EQ(session.metrics()
                .GetCounter("protocol.attempt.outcome.no-wireless-link")
                .value(),
            1u);
}

TEST(ObsIntegration, ExportsAreWellFormedJson) {
  UnlockSession session(NearbyQuiet());
  (void)session.Attempt();
  testing::JsonChecker checker;

  std::ostringstream chrome;
  session.tracer().WriteChromeTrace(chrome);
  EXPECT_TRUE(checker.Check(chrome.str())) << checker.error();

  std::ostringstream metrics;
  session.metrics().WriteJson(metrics);
  EXPECT_TRUE(checker.Check(metrics.str())) << checker.error();
}

TEST(ObsIntegration, ReportTraceStaysCompact) {
  // The UnlockReport's human-readable step log is an 8-step summary
  // pinned by integration_test; the span timeline must not leak into it.
  UnlockSession session(NearbyQuiet());
  const UnlockReport report = session.Attempt();
  ASSERT_TRUE(report.unlocked);
  EXPECT_EQ(report.trace.size(), 8u);
}

}  // namespace
}  // namespace wearlock::protocol
