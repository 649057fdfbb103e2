// Acoustic hardware/channel model tests: signal ops, speaker,
// microphone, propagation, noise sources, jammer, channel, scene.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audio/impairments.h"
#include "audio/medium.h"
#include "audio/scene.h"
#include "audio/speaker.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/spl.h"
#include "sim/rng.h"

namespace wearlock::audio {
namespace {

Samples Tone(double freq_hz, std::size_t n, double amplitude = 1.0) {
  Samples x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude * std::sin(2.0 * std::numbers::pi * freq_hz *
                                static_cast<double>(i) / kSampleRate);
  }
  return x;
}

// ---------------------------------------------------------------- signal
TEST(Signal, MixGrowsAndAdds) {
  Samples y = {1.0, 1.0};
  MixIntoAt(y, {0.5, 0.5}, 1);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], 1.0);
  EXPECT_EQ(y[1], 1.5);
  EXPECT_EQ(y[2], 0.5);
}

TEST(Signal, ScaleClipAppend) {
  Samples x = {0.5, -2.0};
  Scale(x, 2.0);
  EXPECT_EQ(x[0], 1.0);
  Clip(x, 1.5);
  EXPECT_EQ(x[1], -1.5);
  Append(x, {3.0});
  EXPECT_EQ(x.size(), 3u);
  EXPECT_EQ(SamplesFromSeconds(1.0), 44100u);
}

// --------------------------------------------------------------- speaker
TEST(Speaker, VolumeControlsSpl) {
  const SpeakerModel speaker;
  EXPECT_NEAR(speaker.SplAtVolume(1.0), speaker.spec().max_spl_at_d0, 1e-9);
  EXPECT_NEAR(speaker.SplAtVolume(0.5), speaker.spec().max_spl_at_d0 - 6.02, 0.01);
  EXPECT_NEAR(speaker.VolumeForSpl(speaker.spec().max_spl_at_d0 - 20.0), 0.1,
              1e-6);
  EXPECT_EQ(speaker.VolumeForSpl(200.0), 1.0);  // clamped
}

TEST(Speaker, EmittedSplMatchesRating) {
  const SpeakerModel speaker;
  const Samples out = speaker.Emit(Tone(1000.0, 44100), 1.0);
  // Full-scale sine at volume 1 -> max_spl_at_d0 (ripple/ringing alter it
  // slightly).
  EXPECT_NEAR(wearlock::dsp::SplOf(out), speaker.spec().max_spl_at_d0, 1.5);
}

TEST(Speaker, RingingExtendsOutput) {
  const SpeakerModel speaker;
  const Samples out = speaker.Emit(Tone(2000.0, 1000), 0.5);
  EXPECT_GT(out.size(), 1000u);
  // Tail must decay, not ring forever.
  double tail_peak = 0.0;
  for (std::size_t i = out.size() - 50; i < out.size(); ++i) {
    tail_peak = std::max(tail_peak, std::abs(out[i]));
  }
  double body_peak = 0.0;
  for (std::size_t i = 400; i < 600; ++i) {
    body_peak = std::max(body_peak, std::abs(out[i]));
  }
  EXPECT_LT(tail_peak, 0.05 * body_peak);
}

TEST(Speaker, RiseEffectSoftensOnset) {
  SpeakerSpec spec;
  spec.phase_ripple_rad = 0.0;  // isolate the rise envelope
  const SpeakerModel speaker(spec);
  const Samples out = speaker.Emit(Samples(500, 1.0), 1.0);
  EXPECT_LT(std::abs(out[0]), std::abs(out[300]) * 0.2);
}

TEST(Speaker, VolumeOutOfRangeThrows) {
  const SpeakerModel speaker;
  EXPECT_THROW(speaker.Emit({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(speaker.Emit({1.0}, 1.1), std::invalid_argument);
}

// SpeakerModel::Emit as it ran before its tables: the same drive and
// gain, the rise envelope's exp evaluated per sample, the ringing
// kernel's spectrum transformed on every call (Convolve without a
// cache), and the ripple's two sines and std::polar evaluated per bin.
// Emit must match it bit for bit.
Samples ReferenceEmit(const SpeakerSpec& spec, const Samples& input,
                      double volume) {
  const std::size_t tail_len = SamplesFromSeconds(spec.ringing_tail_s);
  Samples ir(tail_len + 1, 0.0);
  ir[0] = 1.0;
  const double decay_per_sample =
      std::pow(spec.ringing_decay, 1.0 / static_cast<double>(tail_len));
  double a = spec.ringing_level;
  for (std::size_t n = 1; n <= tail_len; ++n) {
    a *= decay_per_sample;
    ir[n] = a;
  }
  Samples drive = input;
  Scale(drive, volume);
  Clip(drive, spec.clip_level);
  const double tau = std::max(spec.rise_time_s, 1e-6) * kSampleRate;
  for (std::size_t n = 0; n < drive.size(); ++n) {
    drive[n] *= 1.0 - std::exp(-static_cast<double>(n + 1) / tau);
  }
  Samples out = wearlock::dsp::Convolve(drive, ir);
  const std::size_t n = wearlock::dsp::NextPowerOfTwo(out.size());
  wearlock::dsp::ComplexVec x(n, wearlock::dsp::Complex(0.0, 0.0));
  for (std::size_t i = 0; i < out.size(); ++i) x[i] = {out[i], 0.0};
  wearlock::dsp::Fft(x);
  const double fs = kSampleRate;
  for (std::size_t k = 1; k < n / 2; ++k) {
    const double f = static_cast<double>(k) * fs / static_cast<double>(n);
    const double phi =
        spec.phase_ripple_rad *
        (0.65 * std::sin(2.0 * std::numbers::pi * f / spec.ripple_period1_hz +
                         spec.ripple_phase1_rad) +
         0.45 * std::sin(2.0 * std::numbers::pi * f / spec.ripple_period2_hz +
                         spec.ripple_phase2_rad));
    const auto rot = std::polar(1.0, phi);
    x[k] *= rot;
    x[n - k] *= std::conj(rot);
  }
  wearlock::dsp::Ifft(x);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = x[i].real();
  const double full_scale = wearlock::dsp::SplFromRms(1.0 / std::sqrt(2.0));
  Scale(out, std::pow(10.0, (spec.max_spl_at_d0 - full_scale) / 20.0));
  return out;
}

bool SameBits(const Samples& a, const Samples& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A frame-like drive: noise with a silent lead-in and guard gaps.
Samples Drive(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  Samples x = rng.GaussianVector(n, 0.4);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n / 10 || (i / 97) % 6 == 5) x[i] = 0.0;
  }
  return x;
}

TEST(Speaker, EmitMatchesTheRecomputedRippleBitForBit) {
  SpeakerSpec unit;  // a second unit: ripple phases and a slower rise
  unit.ripple_phase1_rad = 2.1;
  unit.ripple_phase2_rad = 4.0;
  unit.rise_time_s = 0.003;
  for (const SpeakerSpec& spec : {SpeakerSpec{}, unit}) {
    const SpeakerModel speaker(spec);
    // The envelope table ends near 3 300 samples at the default rise
    // and 5 000 at the slower one, so both see drives on either side.
    const std::size_t rise = RiseEnvelopeTable::Shared()
                                 .Get(std::max(spec.rise_time_s, 1e-6) *
                                      kSampleRate)
                                 .size();
    EXPECT_GT(rise, 2432u);
    EXPECT_LT(rise, 8192u);
    // 1 664 samples convolve in the direct form, 2 048, 2 432 and 8 192
    // through the transform with the cached kernel spectrum; the first
    // three ripple at n = 4 096, 4 000 at 8 192 and 8 192 at 16 384.
    for (const std::size_t n : {1664u, 2048u, 2432u, 4000u, 8192u}) {
      const Samples x = Drive(n, n);
      for (const double volume : {0.5, 1.0}) {
        EXPECT_TRUE(SameBits(speaker.Emit(x, volume),
                             ReferenceEmit(spec, x, volume)))
            << "n=" << n << " volume=" << volume << " rise=" << rise;
      }
    }
  }
}

TEST(RiseEnvelopeTable, EndsWhereTheEnvelopeRoundsToOne) {
  RiseEnvelopeTable table;
  for (const double tau : {0.044, 88.2, 132.3, 1000.0}) {
    const std::span<const double> env = table.Get(tau);
    const auto at = [tau](std::size_t n) {
      return 1.0 - std::exp(-static_cast<double>(n + 1) / tau);
    };
    for (std::size_t n = 0; n < env.size(); ++n) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(env[n]),
                std::bit_cast<std::uint64_t>(at(n)))
          << "tau=" << tau << " n=" << n;
      ASSERT_LT(env[n], 1.0);
    }
    // Past the table the envelope is 1.0, which changes no sample.
    for (std::size_t n = env.size(); n < env.size() + 20000; ++n) {
      ASSERT_EQ(at(n), 1.0) << "tau=" << tau << " n=" << n;
    }
    EXPECT_EQ(table.Get(tau).data(), env.data());
  }
  EXPECT_EQ(table.misses(), 4u);
  EXPECT_EQ(table.hits(), 4u);
}

TEST(Impairments, ReverbTailStaysOutOfTheSpectrumCache) {
  // One tail per scene: its spectrum is transformed per call, never
  // kept process-wide.
  ChannelImpairments impairments(ImpairmentPlan::Parse("reverb=400"),
                                 sim::Rng(3));
  const std::uint64_t misses = wearlock::dsp::SpectrumCache::Shared().misses();
  const std::uint64_t hits = wearlock::dsp::SpectrumCache::Shared().hits();
  EXPECT_GT(impairments.ApplyWatchPath(Drive(4000, 9)).size(), 4000u);
  EXPECT_EQ(wearlock::dsp::SpectrumCache::Shared().misses(), misses);
  EXPECT_EQ(wearlock::dsp::SpectrumCache::Shared().hits(), hits);
}

TEST(PhaseRippleTable, ConcurrentFirstUseBuildsEachKeyOnce) {
  // 8 threads race on keys no other test uses: a private table's Get,
  // and Emit through the shared table. Each key is built once and every
  // result keeps the recomputed ripple's bits.
  SpeakerSpec spec;
  spec.ripple_phase1_rad = 0.77;
  spec.ripple_period2_hz = 611.0;
  const SpeakerModel speaker(spec);
  const Samples x = Drive(2432, 5);
  const Samples want = ReferenceEmit(spec, x, 0.5);
  PhaseRippleTable table;
  const std::uint64_t shared_misses = PhaseRippleTable::Shared().misses();
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<const wearlock::dsp::Complex*> seen(kThreads);
  std::vector<int> same(kThreads, 1);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        seen[t] = table.Get(spec, 4096).data();
        same[t] &= SameBits(speaker.Emit(x, 0.5), want);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_TRUE(same[t]) << "thread " << t;
  }
  EXPECT_EQ(table.misses(), 1u);
  EXPECT_EQ(table.hits(), kThreads * kRounds - 1);
  EXPECT_EQ(PhaseRippleTable::Shared().misses(), shared_misses + 1);
  // The key is the bits: -0.0 is not +0.0, and n is part of it.
  SpeakerSpec negative_zero = spec;
  negative_zero.ripple_phase2_rad = -0.0;
  SpeakerSpec positive_zero = spec;
  positive_zero.ripple_phase2_rad = 0.0;
  EXPECT_NE(table.Get(negative_zero, 4096).data(),
            table.Get(positive_zero, 4096).data());
  EXPECT_EQ(table.Get(spec, 8192).size(), 4096u);
  EXPECT_EQ(table.misses(), 4u);
}

// ------------------------------------------------------------ microphone
/// Steady-state gain of a microphone's capture chain for a unit tone
/// at f_hz: output over input RMS once the low-pass has settled.
double CaptureGain(const MicrophoneModel& mic, double f_hz) {
  const Samples in = Tone(f_hz, 8192);
  const Samples out = mic.Capture(in);
  const Samples in_tail(in.begin() + 4096, in.end());
  const Samples out_tail(out.begin() + 4096, out.end());
  return wearlock::dsp::Rms(out_tail) / wearlock::dsp::Rms(in_tail);
}

TEST(Microphone, WatchLowPassKillsNearUltrasound) {
  const MicrophoneModel watch = MicrophoneModel::Watch();
  // "the signal fades significantly from 5kHz to 7kHz".
  EXPECT_GT(CaptureGain(watch, 3000.0), 0.9);
  EXPECT_GT(CaptureGain(watch, 5000.0), 0.6);
  EXPECT_LT(CaptureGain(watch, 7000.0), 0.5);
  EXPECT_LT(CaptureGain(watch, 16000.0), 0.02);
}

TEST(Microphone, PhoneIsFullBand) {
  const MicrophoneModel phone = MicrophoneModel::Phone();
  EXPECT_NEAR(CaptureGain(phone, 18000.0), 1.0, 1e-9);
}

TEST(Microphone, CaptureAppliesFilterAndClip) {
  const MicrophoneModel watch = MicrophoneModel::Watch();
  const Samples in = Tone(16000.0, 4096, 1.0);
  const Samples out = watch.Capture(in);
  EXPECT_LT(wearlock::dsp::Rms(out), 0.05 * wearlock::dsp::Rms(in));
  // Clipping.
  const MicrophoneModel phone = MicrophoneModel::Phone();
  const Samples clipped = phone.Capture(Samples(10, 100.0));
  for (double v : clipped) EXPECT_LE(std::abs(v), phone.spec().clip_level);
}

// ----------------------------------------------------------- propagation
TEST(Propagation, SixDbPerDoubling) {
  const PropagationModel prop{PropagationSpec::Los()};
  EXPECT_NEAR(prop.LossDbAt(0.2), 6.02, 0.01);
  EXPECT_NEAR(prop.LossDbAt(0.4), 12.04, 0.01);
  EXPECT_NEAR(prop.GainAt(0.1), 1.0, 1e-9);
}

TEST(Propagation, DelayMatchesSpeedOfSound) {
  const PropagationModel prop{PropagationSpec::Los()};
  Samples impulse(10, 0.0);
  impulse[0] = 1.0;
  const Samples out = prop.Propagate(impulse, 1.0);
  // 1 m / 343 m/s * 44100 ~ 128.6 samples.
  double peak = 0.0;
  std::size_t peak_at = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (std::abs(out[i]) > peak) {
      peak = std::abs(out[i]);
      peak_at = i;
    }
  }
  EXPECT_NEAR(static_cast<double>(peak_at), 128.6, 2.0);
}

TEST(Propagation, NlosSpreadsEnergy) {
  const PropagationModel los{PropagationSpec::Los()};
  const PropagationModel nlos{PropagationSpec::BodyBlockedNlos()};
  Samples impulse(10, 0.0);
  impulse[0] = 1.0;
  const Samples out_los = los.Propagate(impulse, 0.5);
  const Samples out_nlos = nlos.Propagate(impulse, 0.5);
  EXPECT_GT(out_nlos.size(), out_los.size());  // late reflections
  // Direct tap much weaker under body blocking.
  double los_peak = 0.0, nlos_peak = 0.0;
  for (double v : out_los) los_peak = std::max(los_peak, std::abs(v));
  for (double v : out_nlos) nlos_peak = std::max(nlos_peak, std::abs(v));
  EXPECT_LT(nlos_peak, 0.5 * los_peak);
}

TEST(Propagation, RejectsTooClose) {
  const PropagationModel prop{PropagationSpec::Los()};
  EXPECT_THROW(prop.Propagate({1.0}, 0.01), std::invalid_argument);
}

// ----------------------------------------------------------------- noise
TEST(Noise, CalibratedSpl) {
  sim::Rng rng(31);
  for (Environment env :
       {Environment::kQuietRoom, Environment::kOffice, Environment::kCafe}) {
    NoiseSource source(env, rng.Fork());
    const Samples noise = source.Generate(Samples(44100));
    EXPECT_NEAR(wearlock::dsp::SplOf(noise), NoiseProfile::For(env).spl_db, 0.5)
        << ToString(env);
  }
}

TEST(Noise, EnvironmentOrdering) {
  // Quiet room is the paper's 15-20 dB reference; everything else louder.
  const double quiet = NoiseProfile::For(Environment::kQuietRoom).spl_db;
  EXPECT_GE(quiet, 15.0);
  EXPECT_LE(quiet, 20.0);
  EXPECT_GT(NoiseProfile::For(Environment::kOffice).spl_db, quiet);
  EXPECT_GT(NoiseProfile::For(Environment::kCafe).spl_db,
            NoiseProfile::For(Environment::kOffice).spl_db);
}

/// NoiseSource as it generated before zero-weight components were
/// skipped: every component is drawn, normalised and scaled, whatever
/// its weight.
class ReferenceNoise {
 public:
  ReferenceNoise(NoiseProfile profile, sim::Rng rng)
      : profile_(std::move(profile)), rng_(std::move(rng)) {
    tone_phase_seed_ = rng_.Uniform(0.0, 2.0 * std::numbers::pi);
  }

  Samples Generate(std::size_t n) {
    Samples white = rng_.GaussianVector(n);
    Samples shaped;
    if (profile_.lowpass_hz > 0.0 && profile_.lowpass_hz < kSampleRate / 2.0) {
      auto lpf = wearlock::dsp::BiquadCascade::ButterworthLowPass(
          profile_.lowpass_hz, kSampleRate, 2);
      shaped = white;
      lpf.ProcessBlock(shaped);
    } else {
      shaped = white;
    }
    const double tone_mix = profile_.tone_hz.empty() ? 0.0 : profile_.tone_mix;
    const double shaped_mix =
        std::max(0.0, 1.0 - profile_.broadband_mix - tone_mix);
    auto unit = [](Samples s) {
      const double r = wearlock::dsp::Rms(s);
      if (r > 0.0) Scale(s, 1.0 / r);
      return s;
    };
    Samples out = unit(std::move(shaped));
    Scale(out, std::sqrt(shaped_mix));
    Samples broad = unit(rng_.GaussianVector(n));
    Scale(broad, std::sqrt(profile_.broadband_mix));
    MixInto(out, broad);
    if (tone_mix > 0.0) {
      Samples tones(n, 0.0);
      const double per_tone =
          std::sqrt(tone_mix / static_cast<double>(profile_.tone_hz.size()));
      for (std::size_t t = 0; t < profile_.tone_hz.size(); ++t) {
        const double phase0 = tone_phase_seed_ + static_cast<double>(t) * 1.234;
        for (std::size_t i = 0; i < n; ++i) {
          const double time =
              static_cast<double>(generated_ + i) / kSampleRate;
          tones[i] += per_tone * std::sqrt(2.0) *
                      std::sin(2.0 * std::numbers::pi * profile_.tone_hz[t] *
                                   time +
                               phase0);
        }
      }
      MixInto(out, tones);
    }
    generated_ += n;
    const double rms = wearlock::dsp::Rms(out);
    if (rms > 0.0) Scale(out, wearlock::dsp::RmsFromSpl(profile_.spl_db) / rms);
    return out;
  }

 private:
  NoiseProfile profile_;
  sim::Rng rng_;
  double tone_phase_seed_ = 0.0;
  std::size_t generated_ = 0;
};

TEST(Noise, SkippedZeroWeightComponentChangesNoBit) {
  // Fig. 5's white profile skips its zero-weight shaped draw; white
  // plus tones skips it too; a tone-only profile (both Gaussian
  // components at weight 0) keeps the full path, where -0 + -0 would
  // otherwise turn +0.
  NoiseProfile white{.spl_db = 40.0,
                     .lowpass_hz = 0.0,
                     .broadband_mix = 1.0,
                     .tone_hz = {},
                     .tone_mix = 0.0};
  NoiseProfile white_tones{.spl_db = 45.0,
                           .lowpass_hz = 1500.0,
                           .broadband_mix = 0.8,
                           .tone_hz = {1500.0},
                           .tone_mix = 0.2};
  NoiseProfile tones_only{.spl_db = 50.0,
                          .lowpass_hz = 1000.0,
                          .broadband_mix = 0.0,
                          .tone_hz = {700.0, 2500.0},
                          .tone_mix = 1.0};
  for (const NoiseProfile& profile : {white, white_tones, tones_only}) {
    NoiseSource source(profile, sim::Rng(91));
    ReferenceNoise reference(profile, sim::Rng(91));
    for (const std::size_t n : {4096u, 1001u, 8192u}) {
      EXPECT_TRUE(SameBits(source.Generate(Samples(n)), reference.Generate(n)))
          << "spl " << profile.spl_db << " n=" << n;
    }
  }
}

TEST(Noise, JammerHitsRequestedBins) {
  const ToneJammer jammer({20, 24}, 256, 60.0);
  const Samples jam = jammer.Generate(8192);
  EXPECT_NEAR(wearlock::dsp::SplOf(jam), 60.0, 0.5);
  // Spectral check: energy concentrated at bins 20/24 of a 256-FFT.
  std::vector<double> window(jam.begin(), jam.begin() + 256);
  const auto spec = wearlock::dsp::FftReal(window);
  const double jammed = std::norm(spec[20]) + std::norm(spec[24]);
  double elsewhere = 0.0;
  for (std::size_t k = 1; k < 128; ++k) {
    if (k != 20 && k != 24) elsewhere += std::norm(spec[k]);
  }
  EXPECT_GT(jammed, 10.0 * elsewhere);
}

TEST(Noise, JammerLimits) {
  EXPECT_THROW(ToneJammer({1, 2, 3, 4, 5, 6, 7}, 256, 50.0),
               std::invalid_argument);
  EXPECT_THROW(ToneJammer({1}, 0, 50.0), std::invalid_argument);
  const ToneJammer silent({}, 256, 50.0);
  for (double v : silent.Generate(100)) EXPECT_EQ(v, 0.0);
}

// --------------------------------------------------------------- channel
TEST(Channel, ReceptionGeometry) {
  sim::Rng rng(32);
  ChannelConfig config;
  config.distance_m = 0.5;
  AcousticChannel channel(config, std::move(rng));
  const Samples signal = Tone(3000.0, 2000, 0.5);
  const Reception r = channel.Transmit(signal, 0.8);
  EXPECT_EQ(r.signal_start, kLeadInSamples);
  EXPECT_GT(r.recording.size(),
            kLeadInSamples + signal.size() + kChannelLeadOutSamples - 1);
  EXPECT_GT(r.spl_signal_at_rx, r.spl_noise_at_rx);  // quiet room, close
}

TEST(Channel, SplFallsWithDistance) {
  ChannelConfig config;
  const Samples signal = Tone(3000.0, 2000, 0.5);
  sim::Rng rng(33);
  config.distance_m = 0.2;
  AcousticChannel near(config, rng.Fork());
  config.distance_m = 1.6;
  AcousticChannel far(config, rng.Fork());
  const double spl_near = near.Transmit(signal, 0.8).spl_signal_at_rx;
  const double spl_far = far.Transmit(signal, 0.8).spl_signal_at_rx;
  // 0.2 -> 1.6 m: 3 doublings ~ 18 dB (multipath perturbs slightly).
  EXPECT_NEAR(spl_near - spl_far, 18.0, 2.5);
}

// ----------------------------------------------------------------- scene
TEST(Scene, CoLocatedAmbientIsShared) {
  SceneConfig config;
  config.co_located = true;
  TwoMicScene scene(config, sim::Rng(34));
  const auto [phone, watch] = scene.RecordAmbientPair(8192);
  // Correlation of the raw ambient windows (normalized dot at lag 0).
  double dot = 0.0, ep = 0.0, ew = 0.0;
  for (std::size_t i = 0; i < phone.size(); ++i) {
    dot += phone[i] * watch[i];
    ep += phone[i] * phone[i];
    ew += watch[i] * watch[i];
  }
  EXPECT_GT(dot / std::sqrt(ep * ew), 0.7);
}

TEST(Scene, SeparatedAmbientIsIndependent) {
  SceneConfig config;
  config.co_located = false;
  TwoMicScene scene(config, sim::Rng(35));
  const auto [phone, watch] = scene.RecordAmbientPair(8192);
  double dot = 0.0, ep = 0.0, ew = 0.0;
  for (std::size_t i = 0; i < phone.size(); ++i) {
    dot += phone[i] * watch[i];
    ep += phone[i] * phone[i];
    ew += watch[i] * watch[i];
  }
  EXPECT_LT(std::abs(dot) / std::sqrt(ep * ew), 0.3);
}

TEST(Scene, PhoneSelfRecordingIsLouderThanWatch) {
  SceneConfig config;
  config.distance_m = 0.8;
  TwoMicScene scene(config, sim::Rng(36));
  const Samples tone = Tone(3000.0, 2000, 0.5);
  const auto r = scene.TransmitFromPhone(tone, 0.5);
  // The phone's own mic sits at d0; the watch is 0.8 m away.
  const Samples self = scene.RecordAtDistance(tone, 0.5, kReferenceDistanceM,
                                              config.propagation);
  Samples phone_sig(self.begin() + 4096, self.begin() + 6000);
  Samples watch_sig(r.watch_recording.begin() + 4096,
                    r.watch_recording.begin() + 6000);
  EXPECT_GT(wearlock::dsp::SplOf(phone_sig),
            wearlock::dsp::SplOf(watch_sig) + 10.0);
}

/// TwoMicScene as it rendered before the phone's self-recording of an
/// emission was dropped: the same forks, draws and mixes, with the phone
/// side rendered and returned. No jammer.
class ReferenceScene {
 public:
  ReferenceScene(const SceneConfig& config, sim::Rng rng)
      : config_(config),
        propagation_(config.propagation),
        shared_ambient_(Ambient(config, rng.Fork())),
        watch_ambient_(Ambient(config, rng.Fork())),
        rng_(std::move(rng)) {}

  void ArmImpairments(const ImpairmentPlan& plan, sim::Rng rng,
                      std::size_t rx_guard_samples) {
    impairments_.emplace(plan, std::move(rng), rx_guard_samples);
  }

  SceneReception TransmitFromPhone(const Samples& signal, double volume) {
    const Samples emitted = config_.phone_speaker.Emit(signal, volume);
    Samples at_watch = ApplyPhaseJitter(
        propagation_.Propagate(emitted, config_.distance_m), rng_);
    if (impairments_) {
      at_watch = impairments_->ApplyWatchPath(std::move(at_watch));
    }
    const std::size_t total =
        kLeadInSamples + at_watch.size() + kSceneLeadOutSamples +
        (impairments_ ? impairments_->rx_guard_samples() : 0);
    Samples shared = shared_ambient_.Generate(Samples(total));
    Samples watch_pressure = config_.co_located
                                 ? shared
                                 : watch_ambient_.Generate(Samples(total));
    MixInto(watch_pressure, MicNoise(total, config_.watch_mic));
    Samples neighbor;
    Samples burst;
    if (impairments_) {
      if (impairments_->has_neighbors()) {
        neighbor = impairments_->NeighborWaveform(total);
        MixInto(watch_pressure, neighbor);
      }
      burst =
          impairments_->MaybeBurst(total, wearlock::dsp::Rms(watch_pressure));
      if (!burst.empty()) MixInto(watch_pressure, burst);
    }
    const double watch_noise_spl = wearlock::dsp::SplOf(watch_pressure);
    MixIntoAt(watch_pressure, at_watch, kLeadInSamples);

    const Samples at_phone =
        propagation_.Propagate(emitted, kReferenceDistanceM);
    Samples phone_pressure = std::move(shared);
    phone_pressure.resize(total, 0.0);
    MixInto(phone_pressure, MicNoise(total, MicrophoneModel::Phone()));
    if (!neighbor.empty()) MixInto(phone_pressure, neighbor);
    if (!burst.empty()) MixInto(phone_pressure, burst);
    MixIntoAt(phone_pressure, at_phone, kLeadInSamples);

    if (impairments_) {
      watch_pressure = impairments_->ShiftCaptureWindow(
          std::move(watch_pressure), kLeadInSamples);
      impairments_->AdvanceCursor(total);
    }
    SceneReception r;
    r.signal_start = kLeadInSamples;
    r.watch_spl_signal = wearlock::dsp::SplOf(at_watch);
    r.watch_spl_noise = watch_noise_spl;
    r.phone_recording = MicrophoneModel::Phone().Capture(phone_pressure);
    r.watch_recording = config_.watch_mic.Capture(watch_pressure);
    return r;
  }

  std::pair<Samples, Samples> RecordAmbientPair(std::size_t n) {
    Samples shared = shared_ambient_.Generate(Samples(n));
    Samples phone_pressure = shared;
    MixInto(phone_pressure, MicNoise(n, MicrophoneModel::Phone()));
    Samples watch_pressure = config_.co_located
                                 ? std::move(shared)
                                 : watch_ambient_.Generate(Samples(n));
    MixInto(watch_pressure, MicNoise(n, config_.watch_mic));
    if (impairments_) {
      if (impairments_->has_neighbors()) {
        const Samples neighbor = impairments_->NeighborWaveform(n);
        MixInto(phone_pressure, neighbor);
        MixInto(watch_pressure, neighbor);
      }
      const Samples burst =
          impairments_->MaybeBurst(n, wearlock::dsp::Rms(watch_pressure));
      if (!burst.empty()) {
        MixInto(phone_pressure, burst);
        MixInto(watch_pressure, burst);
      }
      impairments_->AdvanceCursor(n);
    }
    return {MicrophoneModel::Phone().Capture(phone_pressure),
            config_.watch_mic.Capture(watch_pressure)};
  }

 private:
  static NoiseSource Ambient(const SceneConfig& config, sim::Rng rng) {
    if (config.custom_noise) {
      return NoiseSource(*config.custom_noise, std::move(rng));
    }
    return NoiseSource(config.environment, std::move(rng));
  }
  Samples MicNoise(std::size_t n, const MicrophoneModel& mic) {
    const double rms = wearlock::dsp::RmsFromSpl(mic.spec().self_noise_spl);
    return rng_.GaussianVector(n, rms);
  }

  SceneConfig config_;
  PropagationModel propagation_;
  NoiseSource shared_ambient_;
  NoiseSource watch_ambient_;
  std::optional<ChannelImpairments> impairments_;
  sim::Rng rng_;
};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Five rounds of an emission and an ambient pair: every watch capture
/// (and every ambient pair) equals the reference's, so the skipped
/// phone side consumed exactly the draws it used to.
void ExpectWatchMatchesReference(const SceneConfig& config,
                                 const std::string& impairments) {
  constexpr std::uint64_t kSeed = 4711;
  TwoMicScene scene(config, sim::Rng(kSeed));
  ReferenceScene reference(config, sim::Rng(kSeed));
  if (!impairments.empty()) {
    const ImpairmentPlan plan = ImpairmentPlan::Parse(impairments);
    scene.ArmImpairments(plan, sim::Rng(kSeed + 1), 512);
    reference.ArmImpairments(plan, sim::Rng(kSeed + 1), 512);
  }
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Samples signal = Drive(3000 + 500 * round, kSeed + round);
    const double volume = 0.3 + 0.1 * round;
    const SceneReception got = scene.TransmitFromPhone(signal, volume);
    const SceneReception want = reference.TransmitFromPhone(signal, volume);
    EXPECT_TRUE(got.phone_recording.empty());
    EXPECT_FALSE(want.phone_recording.empty());
    EXPECT_TRUE(SameBits(got.watch_recording, want.watch_recording));
    EXPECT_EQ(got.signal_start, want.signal_start);
    EXPECT_TRUE(SameBits(got.watch_spl_signal, want.watch_spl_signal));
    EXPECT_TRUE(SameBits(got.watch_spl_noise, want.watch_spl_noise));

    const auto [phone, watch] = scene.RecordAmbientPair(4410);
    const auto [want_phone, want_watch] = reference.RecordAmbientPair(4410);
    EXPECT_TRUE(SameBits(phone, want_phone));
    EXPECT_TRUE(SameBits(watch, want_watch));
  }
}

TEST(Scene, WatchCaptureMatchesTheSceneThatRenderedThePhoneSide) {
  SceneConfig clean;
  ExpectWatchMatchesReference(clean, "");

  SceneConfig crowded;
  crowded.environment = Environment::kCafe;
  ExpectWatchMatchesReference(crowded, "sro=50,reverb=400,pairs=2,burst=0.5");

  SceneConfig separated;
  separated.co_located = false;
  separated.environment = Environment::kOffice;
  separated.distance_m = 0.7;
  ExpectWatchMatchesReference(separated, "");
}

TEST(Scene, EavesdropperHearsLessFurtherAway) {
  SceneConfig config;
  TwoMicScene scene(config, sim::Rng(37));
  const Samples signal = Tone(3000.0, 2000, 0.5);
  const Samples near = scene.RecordAtDistance(signal, 0.8, 0.3,
                                              PropagationSpec::Los());
  const Samples far = scene.RecordAtDistance(signal, 0.8, 2.4,
                                             PropagationSpec::Los());
  Samples near_sig(near.begin() + 4096, near.begin() + 6000);
  Samples far_sig(far.begin() + 4096, far.begin() + 6000);
  EXPECT_GT(wearlock::dsp::SplOf(near_sig), wearlock::dsp::SplOf(far_sig) + 12.0);
}

}  // namespace
}  // namespace wearlock::audio
