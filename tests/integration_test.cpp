// End-to-end integration tests: complete unlock sessions across
// environments, every protocol filter firing for the right reason, the
// attack suite, and offloading consistency.
#include <gtest/gtest.h>

#include <algorithm>

#include "modem/modem.h"
#include "protocol/ambient.h"
#include "protocol/attack_agents.h"
#include "protocol/session.h"
#include "sensors/filter.h"

namespace wearlock::protocol {
namespace {

ScenarioConfig BaseScenario(std::uint64_t seed = 1) {
  ScenarioConfig config = ScenarioConfig::Config1();
  config.scene.distance_m = 0.3;
  config.seed = seed;
  return config;
}

TEST(UnlockSession, QuietRoomUnlocks) {
  UnlockSession session(BaseScenario(101));
  const UnlockReport report = session.Attempt();
  EXPECT_TRUE(report.unlocked) << ToString(report.outcome);
  EXPECT_EQ(session.keyguard().state(), LockState::kUnlocked);
  ASSERT_TRUE(report.mode.has_value());
  EXPECT_LE(report.token_ber, report.required_ber);
  EXPECT_GT(report.preamble_score, 0.05);
  EXPECT_GT(report.timings.total_ms(), 0.0);
}

class EnvironmentUnlock
    : public ::testing::TestWithParam<audio::Environment> {};

TEST_P(EnvironmentUnlock, MajoritySucceedsAcrossEnvironments) {
  ScenarioConfig config = BaseScenario(200);
  config.scene.environment = GetParam();
  UnlockSession session(config);
  int ok = 0;
  const int rounds = 5;
  for (int i = 0; i < rounds; ++i) {
    session.keyguard().Relock();
    if (session.Attempt().unlocked) ++ok;
  }
  // The paper's case-study average is 90%; noisy rooms may drop rounds
  // (falling back to PIN), but most attempts must succeed.
  EXPECT_GE(ok, 3) << audio::ToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Envs, EnvironmentUnlock,
    ::testing::Values(audio::Environment::kQuietRoom,
                      audio::Environment::kOffice,
                      audio::Environment::kClassroom,
                      audio::Environment::kGroceryStore),
    [](const auto& info) {
      std::string name = audio::ToString(info.param);
      name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
      return name;
    });

TEST(UnlockSession, AdaptiveModeTracksNoise) {
  // The volume rule saturates in loud rooms, so delivered SNR (and hence
  // the chosen mode order) drops with environment noise: quiet rooms run
  // 8PSK, the loud grocery store falls back to QPSK at least sometimes.
  auto count_8psk = [](audio::Environment env) {
    ScenarioConfig config = BaseScenario(300);
    config.scene.environment = env;
    UnlockSession session(config);
    int n = 0;
    for (int i = 0; i < 6; ++i) {
      session.keyguard().Relock();
      const auto r = session.Attempt();
      if (r.mode && *r.mode == modem::Modulation::k8Psk) ++n;
    }
    return n;
  };
  const int quiet_8psk = count_8psk(audio::Environment::kQuietRoom);
  const int noisy_8psk = count_8psk(audio::Environment::kGroceryStore);
  EXPECT_GE(quiet_8psk, 5);
  EXPECT_LT(noisy_8psk, quiet_8psk);
}

TEST(UnlockSession, NoWirelessLinkShortCircuits) {
  ScenarioConfig config = BaseScenario(400);
  config.wireless_connected = false;
  UnlockSession session(config);
  const auto report = session.Attempt();
  EXPECT_EQ(report.outcome, UnlockOutcome::kNoWirelessLink);
  EXPECT_FALSE(report.unlocked);
  // Nothing was computed or transmitted.
  EXPECT_EQ(report.timings.total_ms(), 0.0);
}

TEST(UnlockSession, DifferentRoomsCaughtByAmbientFilter) {
  ScenarioConfig config = BaseScenario(500);
  config.scene.co_located = false;
  config.same_body = false;
  config.phone.enable_sensor_filter = false;  // isolate the ambient filter
  UnlockSession session(config);
  const auto report = session.Attempt();
  EXPECT_EQ(report.outcome, UnlockOutcome::kAmbientMismatch);
  EXPECT_LT(report.ambient_similarity, kAmbientSimilarityThreshold);
}

TEST(UnlockSession, DifferentBodiesCaughtByMotionFilter) {
  ScenarioConfig config = BaseScenario(600);
  config.same_body = false;
  config.scene.co_located = true;  // same room, so ambient passes
  UnlockSession session(config);
  const auto report = session.Attempt();
  EXPECT_EQ(report.outcome, UnlockOutcome::kMotionMismatch);
  ASSERT_TRUE(report.dtw_score.has_value());
  EXPECT_GT(*report.dtw_score, sensors::FilterThresholds{}.d_high);
}

TEST(UnlockSession, SensorSkipPolicyFastPath) {
  ScenarioConfig config = BaseScenario(700);
  config.phone.sensor_policy = SensorSkipPolicy::kSkipSecondPhase;
  config.activity = sensors::Activity::kWalking;  // lowest DTW scores
  UnlockSession session(config);
  const auto report = session.Attempt();
  // Walking co-located scores usually fall under d_low: Phase 2 skipped,
  // no acoustic token round at all.
  if (report.dtw_score &&
      *report.dtw_score < sensors::FilterThresholds{}.d_low) {
    EXPECT_TRUE(report.unlocked);
    EXPECT_FALSE(report.mode.has_value());
    EXPECT_EQ(report.timings.phase2_audio_ms, 0.0);
  }
}

TEST(UnlockSession, NlosRelaxesBerBound) {
  ScenarioConfig config = BaseScenario(800);
  config.scene.propagation = audio::PropagationSpec::BodyBlockedNlos();
  UnlockSession session(config);
  const auto report = session.Attempt();
  if (report.nlos && report.outcome != UnlockOutcome::kNoPreamble &&
      report.outcome != UnlockOutcome::kInsufficientSnr) {
    EXPECT_NEAR(report.required_ber, kNlosRelaxedBer, 1e-9);
  }
}

TEST(UnlockSession, NlosAbortPolicy) {
  ScenarioConfig config = BaseScenario(900);
  config.scene.propagation = audio::PropagationSpec::BodyBlockedNlos();
  config.phone.nlos_policy = NlosPolicy::kAbort;
  UnlockSession session(config);
  const auto report = session.Attempt();
  // Either the probe is lost entirely or the NLOS detector fires.
  if (report.nlos) {
    EXPECT_EQ(report.outcome, UnlockOutcome::kNlosAborted);
  }
}

TEST(UnlockSession, ThreeFailuresLockOut) {
  // Out-of-range watch: every phase-2 delivery fails.
  ScenarioConfig config = BaseScenario(1000);
  config.scene.distance_m = 1.8;
  config.phone.enable_sensor_filter = false;
  UnlockSession session(config);
  int attempts = 0;
  while (session.keyguard().CanAttemptWearlock() && attempts < 10) {
    session.Attempt();
    ++attempts;
  }
  // Token rejections count toward the 3-strike policy; aborts (e.g.
  // insufficient SNR) do not, so allow a few extra rounds.
  EXPECT_EQ(session.keyguard().state() == LockState::kLockedOut,
            session.keyguard().consecutive_failures() >= 3);
  const auto report = session.Attempt();
  if (session.keyguard().state() == LockState::kLockedOut) {
    EXPECT_EQ(report.outcome, UnlockOutcome::kLockedOut);
  }
}

TEST(UnlockSession, OffloadSitesAgreeOnOutcome) {
  // The same scenario processed locally vs. offloaded must reach the same
  // unlock decision (the DSP is shared code; only cost accounting moves).
  for (auto site : {ProcessingSite::kWatchLocal,
                    ProcessingSite::kOffloadToPhone}) {
    ScenarioConfig config = BaseScenario(1100);
    config.processing = site;
    UnlockSession session(config);
    const auto report = session.Attempt();
    EXPECT_TRUE(report.unlocked) << ToString(site);
  }
}

TEST(UnlockSession, LocalProcessingCostsWatchMore) {
  ScenarioConfig local_cfg = BaseScenario(1200);
  local_cfg.processing = ProcessingSite::kWatchLocal;
  UnlockSession local_session(local_cfg);
  const auto local = local_session.Attempt();

  ScenarioConfig remote_cfg = BaseScenario(1200);
  remote_cfg.processing = ProcessingSite::kOffloadToPhone;
  remote_cfg.radio = sim::Radio::kWifi;
  UnlockSession remote_session(remote_cfg);
  const auto remote = remote_session.Attempt();

  ASSERT_TRUE(local.unlocked);
  ASSERT_TRUE(remote.unlocked);
  EXPECT_GT(local.watch_energy_mj, remote.watch_energy_mj);
  EXPECT_GT(local.timings.phase1_compute_ms + local.timings.phase2_compute_ms,
            remote.timings.phase1_compute_ms + remote.timings.phase2_compute_ms);
}

TEST(UnlockSession, ClockAdvancesWithAttempt) {
  UnlockSession session(BaseScenario(1300));
  const auto report = session.Attempt();
  EXPECT_NEAR(session.clock().now(), report.timings.total_ms(),
              report.timings.total_ms() * 0.01 + 1e-6);
}

TEST(UnlockSession, RetriesRecoverTransientFailures) {
  // A marginal channel: some attempts fail on token BER, and a retry or
  // two usually lands one (the case-study usage pattern).
  ScenarioConfig config = BaseScenario(1400);
  config.scene.environment = audio::Environment::kGroceryStore;
  UnlockSession session(config);
  int ok = 0;
  for (int i = 0; i < 5; ++i) {
    session.keyguard().Relock();
    if (!session.keyguard().CanAttemptWearlock()) {
      session.keyguard().UnlockWithCredential();
      session.keyguard().Relock();
    }
    if (session.AttemptWithRetries(2).unlocked) ++ok;
  }
  EXPECT_GE(ok, 4);
}

TEST(UnlockSession, RetriesStopOnStructuralRefusal) {
  ScenarioConfig config = BaseScenario(1401);
  config.wireless_connected = false;
  UnlockSession session(config);
  const auto report = session.AttemptWithRetries(5);
  EXPECT_EQ(report.outcome, UnlockOutcome::kNoWirelessLink);
}

TEST(UnlockSession, TraceRecordsTheProtocolSteps) {
  UnlockSession session(BaseScenario(1402));
  const auto report = session.Attempt();
  ASSERT_TRUE(report.unlocked);
  // The trace must contain the protocol's major steps in order.
  std::vector<std::string> steps;
  for (const auto& e : report.trace) steps.push_back(e.step);
  const std::vector<std::string> expected = {
      "link-check", "volume-rule", "probe-analysis", "ambient-filter",
      "motion-filter", "range-gate", "mode-select", "token-validate"};
  ASSERT_EQ(steps.size(), expected.size());
  EXPECT_EQ(steps, expected);
  // Timestamps never go backwards.
  for (std::size_t i = 1; i < report.trace.size(); ++i) {
    EXPECT_GE(report.trace[i].at_ms, report.trace[i - 1].at_ms);
  }
}

// ----------------------------------------------------------------- attacks
TEST(Attacks, BruteForceHitsLockout) {
  // The attacker holds the phone out of acoustic range and fires random
  // 32-bit token guesses at the validator; the 3-strike keyguard locks
  // WearLock out long before the keyspace matters.
  sim::Rng rng(71);
  OtpService otp({'s', 'e', 'c', 'r', 'e', 't'});
  Keyguard keyguard;
  otp.NextTokenBits();  // a deployment always has one token live
  int guesses = 0;
  while (keyguard.CanAttemptWearlock() && guesses < 100) {
    ++guesses;
    const auto guess =
        static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFull));
    EXPECT_FALSE(otp.ValidateBits(modem::BitsFromWord(guess), 0.1).accepted);
    keyguard.ReportFailure();
  }
  EXPECT_EQ(keyguard.state(), LockState::kLockedOut);
  EXPECT_EQ(guesses, 3);
}

/// The attacker carries the victim's phone to `distance_m` from the watch
/// and presses power. Motion is assumed to get through (worst case for
/// the defender), so only the modem's range bound answers.
UnlockReport CoLocatedAttempt(ScenarioConfig scenario, double distance_m) {
  scenario.scene.distance_m = distance_m;
  scenario.phone.enable_sensor_filter = false;
  return UnlockSession(scenario).Attempt();
}

TEST(Attacks, CoLocatedFailsBeyondSecureRange) {
  const auto near = CoLocatedAttempt(BaseScenario(72), 0.5);
  EXPECT_TRUE(near.unlocked);  // inside the secure range: modem closes
  const auto far = CoLocatedAttempt(BaseScenario(72), 2.2);
  EXPECT_FALSE(far.unlocked);
  EXPECT_TRUE(far.outcome == UnlockOutcome::kTokenRejected ||
              far.outcome == UnlockOutcome::kInsufficientSnr ||
              far.outcome == UnlockOutcome::kNoPreamble)
      << ToString(far.outcome);
}

bool TapeWasReplayed(const AttackReport& report) {
  return std::any_of(
      report.events.begin(), report.events.end(),
      [](const sim::AttackEvent& e) { return e.stage == "replay"; });
}

TEST(Attacks, ReplayDefeatedByTimingWindow) {
  const AttackReport r = RunAttackScenario(
      BaseScenario(73), sim::AttackSpec::Parse("replay@0.5:delay=900"));
  ASSERT_TRUE(TapeWasReplayed(r));
  EXPECT_FALSE(r.false_unlock);
  EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTimingViolation);
}

TEST(Attacks, InstantReplayStillFailsOnStaleToken) {
  // Even a hypothetical zero-latency replay dies: the OTP counter moved.
  const AttackReport r = RunAttackScenario(
      BaseScenario(74), sim::AttackSpec::Parse("replay@0.4:delay=0"));
  ASSERT_TRUE(TapeWasReplayed(r));
  EXPECT_FALSE(r.false_unlock);
  EXPECT_EQ(r.victim_outcome, UnlockOutcome::kTokenRejected);
  EXPECT_GT(r.attacker_token_ber, 0.1);
}

}  // namespace
}  // namespace wearlock::protocol
