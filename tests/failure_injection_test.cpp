// Failure injection: the system must degrade safely, never unlock
// wrongly, when hardware or protocol pieces misbehave.
#include <stdexcept>

#include <gtest/gtest.h>

#include "protocol/session.h"

namespace wearlock::protocol {
namespace {

ScenarioConfig Base(std::uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::Config1();
  config.scene.distance_m = 0.3;
  config.seed = seed;
  return config;
}

TEST(FailureInjection, ClippedSpeakerStillRefusesDistantAttacker) {
  // A speaker that saturates at 20% excursion (damaged driver): legit
  // close-range use may still work or fail, but a 2 m attacker must not
  // slip through on the distorted waveform.
  ScenarioConfig config = Base(9001);
  audio::SpeakerSpec spec;
  spec.clip_level = 0.2;
  config.scene.phone_speaker = audio::SpeakerModel(spec);
  config.scene.distance_m = 2.0;
  config.phone.enable_sensor_filter = false;
  UnlockSession session(config);
  for (int i = 0; i < 4; ++i) {
    session.keyguard().Relock();
    if (!session.keyguard().CanAttemptWearlock()) break;
    EXPECT_FALSE(session.Attempt().unlocked);
  }
}

TEST(FailureInjection, InvalidSubchannelPlanFailsAtSessionBuild) {
  // A bin reused across sets is caught when the session builds its
  // modems, not at the first attempt.
  ScenarioConfig config = Base(9010);
  config.phone.frame.plan.data.push_back(config.phone.frame.plan.pilots[0]);
  EXPECT_THROW(UnlockSession session(config), std::invalid_argument);
}

TEST(FailureInjection, SaturatedMicrophone) {
  // Watch mic saturating at a tiny level: heavy clipping distortion.
  ScenarioConfig config = Base(9002);
  audio::MicrophoneSpec mic = audio::MicrophoneModel::Watch().spec();
  mic.clip_level = 0.001;
  config.scene.watch_mic = audio::MicrophoneModel(mic);
  UnlockSession session(config);
  const auto report = session.Attempt();
  // Whatever happens, it must be a defined outcome and never a false
  // unlock at high BER.
  if (report.unlocked) {
    EXPECT_LE(report.token_ber, report.required_ber);
  }
}

TEST(FailureInjection, LinkDropsBetweenAttempts) {
  ScenarioConfig config = Base(9003);
  UnlockSession session(config);
  EXPECT_TRUE(session.Attempt().unlocked);
  session.keyguard().Relock();
  session.link().set_connected(false);
  const auto down = session.Attempt();
  EXPECT_EQ(down.outcome, UnlockOutcome::kNoWirelessLink);
  session.link().set_connected(true);
  const auto back = session.Attempt();
  EXPECT_TRUE(back.unlocked);
}

TEST(FailureInjection, BurnedCountersDoNotBlockRecovery) {
  // Failed deliveries burn tokens; the validator only checks the latest
  // mint, so the first attempt after the channel recovers validates.
  ScenarioConfig config = Base(9004);
  UnlockSession session(config);
  // Burn two tokens with out-of-range failures.
  session.scene().set_distance(2.5);
  session.Attempt();
  session.keyguard().UnlockWithCredential();
  session.keyguard().Relock();
  session.Attempt();
  session.keyguard().UnlockWithCredential();
  session.keyguard().Relock();
  // Channel restored: this attempt's mint is the live token.
  session.scene().set_distance(0.3);
  const auto report = session.Attempt();
  EXPECT_TRUE(report.unlocked) << ToString(report.outcome);
}

TEST(FailureInjection, JammerOnPilotBins) {
  // Tones parked on pilot (not data) bins attack the channel estimator
  // itself; sub-channel selection cannot move pilots. The system may
  // abort (insufficient SNR) or succeed with a robust mode - it must not
  // unlock with BER above the bound.
  ScenarioConfig config = Base(9005);
  UnlockSession session(config);
  session.scene().SetJammer(audio::ToneJammer(
      {11, 19, 27}, config.phone.frame.fft_size(), /*spl_db=*/58.0));
  const auto report = session.Attempt();
  if (report.unlocked) {
    EXPECT_LE(report.token_ber, report.required_ber);
  }
}

TEST(FailureInjection, JammerEverywhereForcesRefusal) {
  // Six loud tones across the whole band: the channel is unusable; the
  // correct behaviour is refusal, not repeated failures that lock the
  // user out.
  ScenarioConfig config = Base(9006);
  UnlockSession session(config);
  session.scene().SetJammer(audio::ToneJammer(
      {9, 13, 17, 21, 25, 29}, config.phone.frame.fft_size(), 75.0));
  const auto report = session.Attempt();
  EXPECT_FALSE(report.unlocked);
  // A refusal (not a token failure) should not count a strike.
  if (report.outcome == UnlockOutcome::kInsufficientSnr ||
      report.outcome == UnlockOutcome::kNoPreamble) {
    EXPECT_EQ(session.keyguard().consecutive_failures(), 0u);
  }
}

TEST(FailureInjection, TruncatedPhase2RecordingRejected) {
  // The watch's phase-2 recording gets cut off (app killed mid-unlock):
  // substitute a truncated recording via the replay hook.
  ScenarioConfig config = Base(9007);
  UnlockSession session(config);
  AttackInjection tap;
  tap.eavesdrop_distance_m = 0.3;
  const auto first = session.Attempt(tap);
  ASSERT_TRUE(first.eavesdropped_recording.has_value());
  session.keyguard().Relock();

  audio::Samples truncated = *first.eavesdropped_recording;
  truncated.resize(truncated.size() / 3);
  AttackInjection inject;
  inject.replayed_phase2_recording = truncated;
  const auto report = session.Attempt(inject);
  EXPECT_FALSE(report.unlocked);
}

TEST(FailureInjection, WatchHearsOnlyNoiseBurst) {
  // A loud non-WearLock sound (door slam ~ impulse burst) instead of the
  // token: energy gate opens, preamble correlation must still reject.
  ScenarioConfig config = Base(9008);
  UnlockSession session(config);
  sim::Rng rng(9008);
  audio::Samples burst = rng.GaussianVector(12000, 0.05);
  AttackInjection inject;
  inject.replayed_phase2_recording = burst;
  const auto report = session.Attempt(inject);
  EXPECT_FALSE(report.unlocked);
}

TEST(FailureInjection, ZeroMotionSamplesHandled) {
  // Sensor API returns an empty trace (sensor off): the filter layer
  // throws internally on empty inputs, so the config must be able to
  // bypass it rather than crash the controller.
  ScenarioConfig config = Base(9009);
  config.motion_samples = 8;  // pathologically short but non-empty
  UnlockSession session(config);
  EXPECT_NO_THROW(session.Attempt());
}

}  // namespace
}  // namespace wearlock::protocol
