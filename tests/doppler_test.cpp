// Doppler tolerance: the paper picks an LFM chirp preamble because it
// "has nice Doppler-shift insensitivity" (§III-3). These tests move the
// receiver at walking/jogging speeds during the transmission and check
// that detection - and, at moderate speeds, the whole modem - survives.
#include <gtest/gtest.h>

#include <string>

#include "audio/impairments.h"
#include "audio/scene.h"
#include "dsp/fft.h"
#include "dsp/resample.h"
#include "modem/modem.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

TEST(WarpTimeSinc, IdentityAtRateOne) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const auto y = dsp::WarpTimeSinc(x, 1.0);
  ASSERT_EQ(y.size(), 4u);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-12);
}

TEST(WarpTimeSinc, StretchAndCompressLengths) {
  const std::vector<double> x(1000, 0.5);
  EXPECT_EQ(dsp::WarpTimeSinc(x, 2.0).size(), 500u);
  EXPECT_EQ(dsp::WarpTimeSinc(x, 0.5).size(), 2000u);
  EXPECT_THROW(dsp::WarpTimeSinc(x, 0.0), std::invalid_argument);
}

TEST(WarpTimeSinc, ShiftsToneFrequency) {
  // A 1 kHz tone warped by rate 1.01 should read as ~1010 Hz.
  std::vector<double> tone(8192);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 1000.0 *
                       static_cast<double>(i) / 44100.0);
  }
  const auto warped = dsp::WarpTimeSinc(tone, 1.01);
  std::vector<double> window(warped.begin(), warped.begin() + 4096);
  const auto spec = dsp::FftReal(window);
  std::size_t peak = 0;
  double best = 0.0;
  for (std::size_t k = 1; k < 2048; ++k) {
    if (std::abs(spec[k]) > best) {
      best = std::abs(spec[k]);
      peak = k;
    }
  }
  const double freq = static_cast<double>(peak) * 44100.0 / 4096.0;
  EXPECT_NEAR(freq, 1010.0, 12.0);
}

class DopplerSweep : public ::testing::TestWithParam<double> {};

/// A scene whose watch path carries the walker's Doppler warp: the
/// production `doppler=V` impairment (positive V recedes, stretching
/// the frame; negative approaches).
audio::TwoMicScene WalkingScene(double v_mps, sim::Rng& rng) {
  audio::SceneConfig config;
  config.distance_m = 0.4;
  audio::TwoMicScene scene(config, rng.Fork());
  scene.ArmImpairments(
      audio::ImpairmentPlan::Parse("doppler=" + std::to_string(v_mps)),
      rng.Fork(), /*rx_guard_samples=*/0);
  return scene;
}

TEST_P(DopplerSweep, PreambleSurvivesMotion) {
  // Even at a 3 m/s jog (0.9% frequency shift) the chirp must still be
  // found with a solid score.
  sim::Rng rng(60);
  modem::AcousticModem modem;
  audio::TwoMicScene scene = WalkingScene(GetParam(), rng);
  const auto tx = modem.MakeProbeFrame();
  const auto rx = scene.TransmitFromPhone(tx.samples, 0.5);
  const auto probe = modem.AnalyzeProbe(rx.watch_recording);
  ASSERT_TRUE(probe.has_value()) << "v=" << GetParam();
  EXPECT_GT(probe->preamble_score, 0.3) << "v=" << GetParam();
}

TEST_P(DopplerSweep, ModemToleratesWalkingSpeeds) {
  // Full payloads at |v| <= 1.5 m/s: the CP sync + per-symbol pilot
  // equalization absorb the drift at walking pace.
  const double v = GetParam();
  if (std::abs(v) > 1.5) GTEST_SKIP() << "payload test covers walking pace";
  sim::Rng rng(61);
  modem::AcousticModem modem;
  audio::TwoMicScene scene = WalkingScene(v, rng);
  std::vector<std::uint8_t> bits(64);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto tx = modem.Modulate(modem::Modulation::kQpsk, bits);
  const auto rx = scene.TransmitFromPhone(tx.samples, 0.5);
  const auto result = modem.Demodulate(rx.watch_recording,
                                       modem::Modulation::kQpsk, bits.size());
  ASSERT_TRUE(result.has_value()) << "v=" << v;
  EXPECT_LE(modem::BitErrorRate(result->bits, bits), 0.1) << "v=" << v;
}

INSTANTIATE_TEST_SUITE_P(Speeds, DopplerSweep,
                         ::testing::Values(-3.0, -1.5, -0.5, 0.5, 1.5, 3.0),
                         [](const auto& info) {
                           const double v = info.param;
                           std::string name = v < 0 ? "neg" : "pos";
                           name += std::to_string(static_cast<int>(std::abs(v) * 10));
                           return name;
                         });

}  // namespace
}  // namespace wearlock
