// Parser/receiver robustness: hostile or malformed inputs must produce
// clean failures (nullopt / exceptions), never crashes, hangs, or
// phantom successes. Plus spectrogram utility tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <algorithm>
#include <fstream>
#include <numbers>

#include "audio/wav.h"
#include "dsp/spectrogram.h"
#include "modem/datagram.h"
#include "modem/modem.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------ wav parser
TEST(WavFuzz, RandomBytesRejectedCleanly) {
  sim::Rng rng(700);
  const std::string path = TempPath("wearlock_fuzz.wav");
  for (int round = 0; round < 30; ++round) {
    std::vector<char> junk(static_cast<std::size_t>(rng.UniformInt(0, 4096)));
    for (auto& b : junk) b = static_cast<char>(rng.UniformInt(0, 255));
    {
      std::ofstream f(path, std::ios::binary);
      f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    EXPECT_THROW(audio::ReadWav(path), std::runtime_error) << round;
  }
  std::filesystem::remove(path);
}

TEST(WavFuzz, TruncatedValidFileRejectedOrSafe) {
  sim::Rng rng(701);
  const std::string path = TempPath("wearlock_trunc.wav");
  audio::Samples samples = rng.GaussianVector(2048, 0.1);
  audio::WriteWav(path, samples);
  // Read the full bytes, then rewrite truncated prefixes.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (std::size_t cut : {0u, 4u, 11u, 44u, 100u, 2000u}) {
    const std::size_t keep = std::min(cut, bytes.size());
    {
      std::ofstream f(path, std::ios::binary);
      f.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    // Either a clean error or a shorter-but-valid read; never a crash.
    try {
      const auto wav = audio::ReadWav(path);
      EXPECT_LE(wav.samples.size(), samples.size());
    } catch (const std::runtime_error&) {
    }
  }
  std::filesystem::remove(path);
}

// -------------------------------------------------------- modem receivers
TEST(ModemFuzz, GarbageRecordingsNeverCrashOrFalselyDecode) {
  sim::Rng rng(702);
  modem::AcousticModem modem;
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 256 + rng.UniformInt(0, 20000);
    audio::Samples garbage = rng.GaussianVector(n, rng.Uniform(1e-6, 0.5));
    const auto hard =
        modem.Demodulate(garbage, modem::Modulation::kQpsk, 32);
    const auto probe = modem.AnalyzeProbe(garbage);
    // Nothing to assert beyond "no crash" - decodes of noise are allowed
    // to return bits (the OTP layer rejects them) but must be well-formed.
    if (hard) {
      EXPECT_EQ(hard->bits.size(), 32u);
    }
    if (probe) {
      EXPECT_EQ(probe->noise_power.size(), 256u);
    }
  }
}

TEST(ModemFuzz, DatagramNeverReportsCrcOkOnNoise) {
  sim::Rng rng(703);
  modem::AcousticModem modem;
  modem::DatagramConfig config;
  int crc_ok = 0;
  for (int round = 0; round < 20; ++round) {
    audio::Samples noise = rng.GaussianVector(30000, 0.05);
    const auto result = modem::ReceiveDatagram(modem, config, noise);
    if (result && result->crc_ok) ++crc_ok;
  }
  // CRC-16 on random data passes with p ~ 2^-16; zero expected here.
  EXPECT_EQ(crc_ok, 0);
}

// ------------------------------------------------------------ spectrogram
TEST(Spectrogram, ShapeAndToneLocation) {
  // A 3 kHz tone must light up the right row.
  std::vector<double> tone(8192);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(2.0 * std::numbers::pi * 3000.0 *
                       static_cast<double>(i) / 44100.0);
  }
  const auto spec = dsp::ComputeSpectrogram(tone);
  ASSERT_FALSE(spec.power_db.empty());
  EXPECT_EQ(spec.power_db.front().size(), 128u);
  // Find the loudest bin of a middle frame.
  const auto& frame = spec.power_db[spec.power_db.size() / 2];
  std::size_t peak = 0;
  for (std::size_t k = 1; k < frame.size(); ++k) {
    if (frame[k] > frame[peak]) peak = k;
  }
  EXPECT_NEAR(static_cast<double>(peak) * spec.bin_hz, 3000.0, spec.bin_hz);
}

TEST(Spectrogram, AsciiRenderHasExpectedGeometry) {
  sim::Rng rng(705);
  const auto spec = dsp::ComputeSpectrogram(rng.GaussianVector(8192, 0.1));
  const std::string art = dsp::RenderAscii(spec, 40, 10);
  // 10 data rows + 1 axis row.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 11);
}

TEST(Spectrogram, Validation) {
  EXPECT_THROW(dsp::ComputeSpectrogram({}), std::invalid_argument);
  dsp::SpectrogramOptions bad;
  bad.fft_size = 100;
  EXPECT_THROW(dsp::ComputeSpectrogram(std::vector<double>(500, 0.1), bad),
               std::invalid_argument);
  bad.fft_size = 256;
  bad.hop = 0;
  EXPECT_THROW(dsp::ComputeSpectrogram(std::vector<double>(500, 0.1), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace wearlock
