// Extension-module tests: channel coding, WAV I/O, speaker
// fingerprinting, acoustic distance bounding.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "audio/medium.h"
#include "audio/wav.h"
#include "modem/coding.h"
#include "modem/modem.h"
#include "protocol/distance_bounding.h"
#include "protocol/fingerprint.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

// ---------------------------------------------------------------- coding
class CodingRoundTrip : public ::testing::TestWithParam<modem::CodeScheme> {};

TEST_P(CodingRoundTrip, CleanRoundTrip) {
  sim::Rng rng(71);
  std::vector<std::uint8_t> bits(64);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto coded = modem::Encode(GetParam(), bits);
  EXPECT_EQ(coded.size(), modem::EncodedLength(GetParam(), bits.size()));
  const auto decoded = modem::Decode(GetParam(), coded);
  ASSERT_GE(decoded.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(decoded[i], bits[i]);
}

TEST_P(CodingRoundTrip, RateMatchesExpansion) {
  const double rc = modem::CodeRate(GetParam());
  const std::size_t coded = modem::EncodedLength(GetParam(), 64);
  EXPECT_NEAR(64.0 / static_cast<double>(coded), rc, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CodingRoundTrip,
                         ::testing::Values(modem::CodeScheme::kNone,
                                           modem::CodeScheme::kHamming74,
                                           modem::CodeScheme::kRepetition3),
                         [](const auto& info) {
                           switch (info.param) {
                             case modem::CodeScheme::kNone: return "None";
                             case modem::CodeScheme::kHamming74: return "Hamming";
                             case modem::CodeScheme::kRepetition3: return "Rep3";
                           }
                           return "?";
                         });

TEST(Coding, HammingCorrectsAnySingleError) {
  sim::Rng rng(72);
  std::vector<std::uint8_t> bits(32);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto coded = modem::Encode(modem::CodeScheme::kHamming74, bits);
  for (std::size_t flip = 0; flip < coded.size(); ++flip) {
    auto corrupted = coded;
    corrupted[flip] ^= 1;
    const auto decoded = modem::Decode(modem::CodeScheme::kHamming74, corrupted);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(decoded[i], bits[i]) << "flip at " << flip << " bit " << i;
    }
  }
}

TEST(Coding, RepetitionCorrectsSingleErrorPerTriple) {
  const std::vector<std::uint8_t> bits = {1, 0, 1, 1};
  auto coded = modem::Encode(modem::CodeScheme::kRepetition3, bits);
  coded[0] ^= 1;   // one error in the first triple
  coded[5] ^= 1;   // one error in the second triple
  const auto decoded = modem::Decode(modem::CodeScheme::kRepetition3, coded);
  EXPECT_EQ(decoded, bits);
}

TEST(Coding, HammingDoubleErrorIsBeyondCapability) {
  // Two errors in one block must NOT silently pass as corrected-correct:
  // the decode produces some wrong block (documented best-effort).
  const std::vector<std::uint8_t> bits = {1, 0, 1, 1};
  auto coded = modem::Encode(modem::CodeScheme::kHamming74, bits);
  coded[0] ^= 1;
  coded[1] ^= 1;
  const auto decoded = modem::Decode(modem::CodeScheme::kHamming74, coded);
  EXPECT_NE(decoded, bits);
}

TEST(Coding, SoftMatchesHardOnCleanLlrs) {
  sim::Rng rng(721);
  std::vector<std::uint8_t> bits(32);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  for (auto scheme : {modem::CodeScheme::kNone, modem::CodeScheme::kHamming74,
                      modem::CodeScheme::kRepetition3}) {
    const auto coded = modem::Encode(scheme, bits);
    // Perfect LLRs: +1 for bit 0, -1 for bit 1.
    std::vector<double> llrs;
    for (auto c : coded) llrs.push_back(c ? -1.0 : 1.0);
    const auto decoded = modem::DecodeSoft(scheme, llrs);
    ASSERT_GE(decoded.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(decoded[i], bits[i]) << ToString(scheme) << " " << i;
    }
  }
}

TEST(Coding, SoftRepetitionOutvotesTwoWeakErrors) {
  // Hard majority fails on two flipped bits per triple; soft decoding
  // recovers when the flips are low-confidence.
  const std::vector<double> llrs = {-0.1, -0.1, 5.0};  // true bit: 0
  const auto decoded = modem::DecodeSoft(modem::CodeScheme::kRepetition3, llrs);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], 0);
  const auto hard = modem::Decode(modem::CodeScheme::kRepetition3, {1, 1, 0});
  EXPECT_EQ(hard[0], 1);  // hard majority gets it wrong
}

TEST(Coding, SoftHammingUsesReliability) {
  // Two weak errors in one block defeat the hard decoder but not ML soft
  // decoding.
  const std::vector<std::uint8_t> bits = {1, 0, 1, 1};
  const auto coded = modem::Encode(modem::CodeScheme::kHamming74, bits);
  std::vector<double> llrs;
  for (auto c : coded) llrs.push_back(c ? -3.0 : 3.0);
  llrs[0] = -llrs[0] * 0.05;  // two low-confidence flips
  llrs[1] = -llrs[1] * 0.05;
  const auto soft = modem::DecodeSoft(modem::CodeScheme::kHamming74, llrs);
  EXPECT_EQ(soft, bits);
}

TEST(Coding, SoftDemodulationEndToEnd) {
  sim::Rng rng(722);
  modem::AcousticModem modem;
  audio::ChannelConfig cfg;
  cfg.distance_m = 0.3;
  audio::AcousticChannel channel(cfg, rng.Fork());
  std::vector<std::uint8_t> payload(40);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto coded = modem::Encode(modem::CodeScheme::kHamming74, payload);
  const auto tx = modem.Modulate(modem::Modulation::kQpsk, coded);
  const auto rx = channel.Transmit(tx.samples, 0.4);
  const auto demod = modem.Demodulate(rx.recording, modem::Modulation::kQpsk,
                                     coded.size(), /*with_llrs=*/true);
  ASSERT_TRUE(demod.has_value());
  ASSERT_EQ(demod->llrs.size(), coded.size());
  const auto decoded =
      modem::DecodeSoft(modem::CodeScheme::kHamming74, demod->llrs);
  ASSERT_GE(decoded.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(decoded[i], payload[i]) << i;
  }
}

// ------------------------------------------------------------------- wav
TEST(Wav, RoundTripPreservesSignal) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wearlock_test.wav").string();
  sim::Rng rng(73);
  audio::Samples original(4096);
  for (auto& v : original) v = 0.5 * rng.Gaussian();
  audio::Clip(original, 1.0);
  audio::WriteWav(path, original);
  const audio::WavData read = audio::ReadWav(path);
  ASSERT_EQ(read.samples.size(), original.size());
  EXPECT_EQ(read.sample_rate_hz, audio::kSampleRate);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(read.samples[i], original[i], 1.0 / 10000.0) << i;
  }
  std::filesystem::remove(path);
}

TEST(Wav, ClampsOutOfRange) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wearlock_clip.wav").string();
  audio::WriteWav(path, {2.0, -3.0, 0.0});
  const audio::WavData read = audio::ReadWav(path);
  EXPECT_NEAR(read.samples[0], 1.0, 0.001);
  EXPECT_NEAR(read.samples[1], -1.0, 0.001);
  std::filesystem::remove(path);
}

TEST(Wav, ErrorsOnMissingFile) {
  EXPECT_THROW(audio::ReadWav("/nonexistent/nowhere.wav"), std::runtime_error);
}

TEST(Wav, ModemSurvivesWavRoundTrip) {
  // 16-bit quantization must not hurt the modem.
  const std::string path =
      (std::filesystem::temp_directory_path() / "wearlock_frame.wav").string();
  sim::Rng rng(74);
  modem::AcousticModem modem;
  std::vector<std::uint8_t> bits(32);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
  audio::WriteWav(path, tx.samples);
  const audio::WavData read = audio::ReadWav(path);
  // Splice into a noisy-lead recording so detection has work to do.
  audio::Samples recording = rng.GaussianVector(4096, 1e-4);
  audio::Append(recording, read.samples);
  audio::Append(recording, rng.GaussianVector(1024, 1e-4));
  const auto result = modem.Demodulate(recording, modem::Modulation::kQpsk, 32);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->bits, bits);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- fingerprint
TEST(Fingerprint, SameSpeakerMatches) {
  sim::Rng rng(75);
  modem::FrameSpec frame;
  modem::AcousticModem modem(frame);
  audio::SceneConfig sc;
  sc.distance_m = 0.3;
  audio::TwoMicScene scene(sc, rng.Fork());

  protocol::SpeakerVerifier verifier;
  auto observe = [&](audio::TwoMicScene& s) {
    const auto rx = s.TransmitFromPhone(modem.MakeProbeFrame().samples, 0.3);
    const auto probe = modem.AnalyzeProbe(rx.watch_recording);
    EXPECT_TRUE(probe.has_value());
    return protocol::FingerprintFeatures(probe->channel, frame.plan);
  };
  while (!verifier.enrolled()) verifier.Enroll(observe(scene));
  EXPECT_GT(verifier.Match(observe(scene)), verifier.config().match_threshold);
}

TEST(Fingerprint, DifferentSpeakerRejected) {
  sim::Rng rng(76);
  modem::FrameSpec frame;
  modem::AcousticModem modem(frame);
  audio::SceneConfig paired;
  paired.distance_m = 0.3;
  audio::TwoMicScene paired_scene(paired, rng.Fork());
  // A different physical unit: ringing and ripple realization both
  // differ (same-room multipath is common-mode, so discrimination rests
  // on the hardware's own signature being multi-dimensional).
  audio::SceneConfig other = paired;
  other.phone_speaker = audio::SpeakerModel(audio::SpeakerSpec{
      .ringing_tail_s = 0.010,
      .ringing_level = 0.13,
      .phase_ripple_rad = 0.3,
      .ripple_period1_hz = 800.0,
      .ripple_period2_hz = 650.0,
      .ripple_phase1_rad = 2.5,
      .ripple_phase2_rad = 0.4,
  });
  audio::TwoMicScene other_scene(other, rng.Fork());

  protocol::SpeakerVerifier verifier;
  auto observe = [&](audio::TwoMicScene& s) {
    const auto rx = s.TransmitFromPhone(modem.MakeProbeFrame().samples, 0.3);
    const auto probe = modem.AnalyzeProbe(rx.watch_recording);
    EXPECT_TRUE(probe.has_value());
    return protocol::FingerprintFeatures(probe->channel, frame.plan);
  };
  while (!verifier.enrolled()) verifier.Enroll(observe(paired_scene));
  EXPECT_LT(verifier.Match(observe(other_scene)),
            verifier.config().match_threshold);
}

TEST(Fingerprint, InvariantToDistanceAndVolume) {
  sim::Rng rng(77);
  modem::FrameSpec frame;
  modem::AcousticModem modem(frame);
  audio::SceneConfig sc;
  sc.distance_m = 0.2;
  audio::TwoMicScene scene(sc, rng.Fork());

  protocol::SpeakerVerifier verifier;
  auto observe = [&](double volume) {
    const auto rx = scene.TransmitFromPhone(modem.MakeProbeFrame().samples, volume);
    const auto probe = modem.AnalyzeProbe(rx.watch_recording);
    EXPECT_TRUE(probe.has_value());
    return protocol::FingerprintFeatures(probe->channel, frame.plan);
  };
  while (!verifier.enrolled()) verifier.Enroll(observe(0.3));
  // Same speaker, farther away, quieter: still a match.
  scene.set_distance(0.6);
  EXPECT_GT(verifier.Match(observe(0.6)), verifier.config().match_threshold);
}

TEST(Fingerprint, ApiValidation) {
  EXPECT_THROW(protocol::FingerprintSimilarity({1.0}, {1.0, 2.0}),
               std::invalid_argument);
  protocol::SpeakerVerifier verifier;
  EXPECT_THROW(verifier.Match({1.0}), std::logic_error);
  EXPECT_THROW(verifier.Enroll({}), std::invalid_argument);
  EXPECT_THROW(
      protocol::SpeakerVerifier(protocol::FingerprintConfig{.enroll_count = 0}),
      std::invalid_argument);
}

// ----------------------------------------------------- distance bounding
TEST(DistanceBounding, HonestDistanceEstimatedAccurately) {
  sim::Rng rng(78);
  audio::SceneConfig sc;
  sc.distance_m = 0.5;
  audio::TwoMicScene scene(sc, rng.Fork());
  const auto result =
      protocol::AcousticRangeMedian(scene, modem::FrameSpec{}, 0.4, rng, 5);
  ASSERT_TRUE(result.chirp_detected);
  EXPECT_NEAR(result.estimated_distance_m, 0.5, 0.25);
  EXPECT_TRUE(result.within_bound);
}

TEST(DistanceBounding, RelayLatencyInflatesEstimate) {
  sim::Rng rng(79);
  audio::SceneConfig sc;
  sc.distance_m = 0.4;
  audio::TwoMicScene scene(sc, rng.Fork());
  const auto relayed = protocol::AcousticRangeMedian(
      scene, modem::FrameSpec{}, 0.4, rng, 5, /*relay_delay_ms=*/10.0);
  ASSERT_TRUE(relayed.chirp_detected);
  EXPECT_GT(relayed.estimated_distance_m, 3.0);
  EXPECT_FALSE(relayed.within_bound);
}

TEST(DistanceBounding, OutOfRangeNotDetected) {
  sim::Rng rng(80);
  audio::SceneConfig sc;
  sc.distance_m = 6.0;
  audio::TwoMicScene scene(sc, rng.Fork());
  // At 6 m with a whisper-quiet chirp, detection itself should fail.
  const auto result =
      protocol::AcousticRange(scene, modem::FrameSpec{}, 0.005, rng);
  EXPECT_FALSE(result.chirp_detected);
}

}  // namespace
}  // namespace wearlock
