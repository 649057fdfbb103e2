#include "audio/noise.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/filter.h"
#include "dsp/hilbert.h"
#include "dsp/spl.h"
#include "dsp/workspace.h"

namespace wearlock::audio {
namespace {
constexpr double kPi = std::numbers::pi;

/// Rescale x to rms `target` (no-op on silent buffers).
void ScaleToRms(std::span<double> x, double target) {
  const double rms = wearlock::dsp::Rms(x);
  if (rms > 0.0) Scale(x, target / rms);
}

/// n draws from `rng` in this thread's workspace, valid until the next call.
std::span<double> DrawGaussians(sim::Rng& rng, std::size_t n,
                                double stddev = 1.0) {
  const std::span<double> out = wearlock::dsp::Workspace::PerThread().RealScratch(
      wearlock::dsp::RSlot::kGaussians, n);
  rng.FillGaussian(out, stddev);
  return out;
}

}  // namespace

std::string ToString(Environment env) {
  switch (env) {
    case Environment::kQuietRoom: return "Quiet Room";
    case Environment::kOffice: return "Office";
    case Environment::kClassroom: return "Class Room";
    case Environment::kCafe: return "Cafe";
    case Environment::kGroceryStore: return "Grocery Store";
  }
  return "Unknown";
}

NoiseProfile NoiseProfile::For(Environment env) {
  switch (env) {
    case Environment::kQuietRoom:
      // The paper's measurement room: "SPL of ambient noise about 15-20 dB".
      return NoiseProfile{.spl_db = 17.0,
                          .lowpass_hz = 800.0,
                          .broadband_mix = 0.10,
                          .tone_hz = {},
                          .tone_mix = 0.0};
    case Environment::kOffice:
      // Keyboard typing, HVAC.
      return NoiseProfile{.spl_db = 45.0,
                          .lowpass_hz = 1500.0,
                          .broadband_mix = 0.20,
                          .tone_hz = {120.0, 2800.0},
                          .tone_mix = 0.08};
    case Environment::kClassroom:
      // Human voices dominate: energy up to ~3-4 kHz.
      return NoiseProfile{.spl_db = 52.0,
                          .lowpass_hz = 2500.0,
                          .broadband_mix = 0.25,
                          .tone_hz = {},
                          .tone_mix = 0.0};
    case Environment::kCafe:
      // Voices + espresso machinery: loud and broadband.
      return NoiseProfile{.spl_db = 58.0,
                          .lowpass_hz = 3000.0,
                          .broadband_mix = 0.35,
                          .tone_hz = {950.0, 1900.0},
                          .tone_mix = 0.10};
    case Environment::kGroceryStore:
      // Refrigeration hum + PA + voices.
      return NoiseProfile{.spl_db = 55.0,
                          .lowpass_hz = 2000.0,
                          .broadband_mix = 0.30,
                          .tone_hz = {60.0, 180.0, 3500.0},
                          .tone_mix = 0.12};
  }
  throw std::invalid_argument("NoiseProfile::For: unknown environment");
}

NoiseSource::NoiseSource(NoiseProfile profile, sim::Rng rng)
    : profile_(profile), rng_(std::move(rng)) {
  tone_phase_seed_ = rng_.Uniform(0.0, 2.0 * kPi);
}

NoiseSource::NoiseSource(Environment env, sim::Rng rng)
    : NoiseSource(NoiseProfile::For(env), std::move(rng)) {}

Samples NoiseSource::Generate(Samples out) {
  const std::size_t n = out.size();
  const double tone_mix = profile_.tone_hz.empty() ? 0.0 : profile_.tone_mix;
  const double shaped_mix =
      std::max(0.0, 1.0 - profile_.broadband_mix - tone_mix);

  // Normalize each component to unit rms before mixing so the mix
  // fractions are energy fractions.
  const double broad_gain = std::sqrt(profile_.broadband_mix);
  if (shaped_mix == 0.0 && profile_.broadband_mix > 0.0) {
    // White noise: the shaped part would add +-0 to a broadband part that
    // never holds -0.0 (docs/perf.md, "Work no output reads"), drawn here.
    rng_.SkipGaussians(n);
    rng_.FillGaussian(out);
    ScaleToRms(out, 1.0);
    Scale(out, broad_gain);
  } else {
    // Shaped (low-passed) component carries the bulk of ambient energy.
    rng_.FillGaussian(out);
    if (profile_.lowpass_hz > 0.0 && profile_.lowpass_hz < kSampleRate / 2.0) {
      wearlock::dsp::BiquadCascade::ButterworthLowPass(profile_.lowpass_hz,
                                                       kSampleRate, 2)
          .ProcessBlock(out);
    }
    ScaleToRms(out, 1.0);
    Scale(out, std::sqrt(shaped_mix));
    const std::span<double> broad = DrawGaussians(rng_, n);
    ScaleToRms(broad, 1.0);
    Scale(broad, broad_gain);
    for (std::size_t i = 0; i < n; ++i) out[i] += broad[i];
  }

  if (tone_mix > 0.0) {
    const double per_tone =
        std::sqrt(tone_mix / static_cast<double>(profile_.tone_hz.size()));
    for (std::size_t i = 0; i < n; ++i) {
      const double time =
          static_cast<double>(samples_generated_ + i) / kSampleRate;
      double tones = 0.0;
      for (std::size_t t = 0; t < profile_.tone_hz.size(); ++t) {
        const double phase0 =
            tone_phase_seed_ + static_cast<double>(t) * 1.234;
        tones += per_tone * std::sqrt(2.0) *
                 std::sin(2.0 * kPi * profile_.tone_hz[t] * time + phase0);
      }
      out[i] += tones;
    }
  }

  samples_generated_ += n;
  ScaleToRms(out, wearlock::dsp::RmsFromSpl(profile_.spl_db));
  return out;
}

ToneJammer::ToneJammer(std::vector<std::size_t> bin_indices,
                       std::size_t fft_size, double spl_db)
    : bins_(std::move(bin_indices)), fft_size_(fft_size), spl_db_(spl_db) {
  if (bins_.size() > kMaxTones) {
    throw std::invalid_argument("ToneJammer: at most 6 simultaneous tones");
  }
  if (fft_size_ == 0) throw std::invalid_argument("ToneJammer: zero FFT size");
}

Samples ToneJammer::Generate(std::size_t n) const {
  Samples out(n, 0.0);
  if (bins_.empty()) return out;
  for (std::size_t b : bins_) {
    const double f = static_cast<double>(b) * kSampleRate /
                     static_cast<double>(fft_size_);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / kSampleRate;
      out[i] += std::sin(2.0 * kPi * f * t + 0.731 * static_cast<double>(b));
    }
  }
  ScaleToRms(out, wearlock::dsp::RmsFromSpl(spl_db_));
  return out;
}

Samples ApplyPhaseJitter(Samples x, sim::Rng& rng) {
  static_assert(kPhaseJitterBandwidthHz < kSampleRate / 2.0);
  if (x.empty()) return x;
  const std::span<double> theta = DrawGaussians(rng, x.size());
  wearlock::dsp::Biquad::LowPass(kPhaseJitterBandwidthHz, kSampleRate)
      .ProcessBlock(theta);
  ScaleToRms(theta, kPhaseJitterRmsRad);
  return wearlock::dsp::RotatePhase(std::move(x), theta);
}

Samples AddSelfNoise(Samples pressure, const MicrophoneModel& mic,
                     sim::Rng& rng) {
  const std::span<const double> self = DrawGaussians(
      rng, pressure.size(), wearlock::dsp::RmsFromSpl(mic.spec().self_noise_spl));
  for (std::size_t i = 0; i < pressure.size(); ++i) pressure[i] += self[i];
  return pressure;
}

}  // namespace wearlock::audio
