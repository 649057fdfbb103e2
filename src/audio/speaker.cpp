#include "audio/speaker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/hilbert.h"
#include "dsp/spl.h"

namespace wearlock::audio {
namespace {

// SPL of a full-scale (amplitude 1.0) digital sine: fixes the mapping
// between digital amplitude and dB SPL.
double FullScaleSineSpl() {
  return wearlock::dsp::SplFromRms(1.0 / std::sqrt(2.0));
}

}  // namespace

std::span<const wearlock::dsp::Complex> PhaseRippleTable::Get(
    const SpeakerSpec& spec, std::size_t n) {
  const Key key = {n,
                   std::bit_cast<std::uint64_t>(spec.phase_ripple_rad),
                   std::bit_cast<std::uint64_t>(spec.ripple_period1_hz),
                   std::bit_cast<std::uint64_t>(spec.ripple_phase1_rad),
                   std::bit_cast<std::uint64_t>(spec.ripple_period2_hz),
                   std::bit_cast<std::uint64_t>(spec.ripple_phase2_rad)};
  return Find(key, [&] {
    wearlock::dsp::ComplexVec rot(n / 2, wearlock::dsp::Complex(1.0, 0.0));
    const double fs = kSampleRate;
    for (std::size_t k = 1; k < n / 2; ++k) {
      const double f = static_cast<double>(k) * fs / static_cast<double>(n);
      const double phi =
          spec.phase_ripple_rad *
          (0.65 * std::sin(2.0 * std::numbers::pi * f / spec.ripple_period1_hz +
                           spec.ripple_phase1_rad) +
           0.45 * std::sin(2.0 * std::numbers::pi * f / spec.ripple_period2_hz +
                           spec.ripple_phase2_rad));
      rot[k] = std::polar(1.0, phi);
    }
    return rot;
  });
}

std::span<const double> RiseEnvelopeTable::Get(double tau) {
  return Find({std::bit_cast<std::uint64_t>(tau)}, [&] {
    std::vector<double> env;
    for (std::size_t n = 0;; ++n) {
      const double e = 1.0 - std::exp(-static_cast<double>(n + 1) / tau);
      if (e == 1.0) return env;
      env.push_back(e);
    }
  });
}

SpeakerModel::SpeakerModel(SpeakerSpec spec) : spec_(spec) {
  // Impulse response: unit direct path followed by an exponentially
  // decaying reverberation tail (the "ringing" effect).
  const std::size_t tail_len = SamplesFromSeconds(spec_.ringing_tail_s);
  ringing_ir_.assign(tail_len + 1, 0.0);
  ringing_ir_[0] = 1.0;
  if (tail_len > 0) {
    const double decay_per_sample =
        std::pow(spec_.ringing_decay, 1.0 / static_cast<double>(tail_len));
    double a = spec_.ringing_level;
    for (std::size_t n = 1; n <= tail_len; ++n) {
      a *= decay_per_sample;
      ringing_ir_[n] = a;
    }
  }
}

Samples SpeakerModel::Emit(Samples drive, double volume) const {
  if (volume < 0.0 || volume > 1.0) {
    throw std::invalid_argument("SpeakerModel::Emit: volume must be in [0, 1]");
  }
  // Digital drive with excursion clipping.
  Scale(drive, volume);
  Clip(drive, spec_.clip_level);

  // Rise effect: first-order attack envelope from signal onset.
  const std::span<const double> rise = RiseEnvelopeTable::Shared().Get(
      std::max(spec_.rise_time_s, 1e-6) * kSampleRate);
  for (std::size_t n = 0; n < std::min(drive.size(), rise.size()); ++n) {
    drive[n] *= rise[n];
  }

  // Ringing: convolve with the reverberation impulse response, whose
  // spectrum every transform-path frame of this size shares.
  Samples out = wearlock::dsp::Convolve(std::move(drive), ringing_ir_,
                                        &wearlock::dsp::SpectrumCache::Shared());

  // Static phase-response ripple (see SpeakerSpec::phase_ripple_rad).
  if (spec_.phase_ripple_rad > 0.0 && !out.empty()) {
    wearlock::dsp::ComplexVec& spec = wearlock::dsp::PaddedComplex(out);
    const std::size_t n = spec.size();
    wearlock::dsp::Fft(spec);
    const std::span<const wearlock::dsp::Complex> rot =
        PhaseRippleTable::Shared().Get(spec_, n);
    for (std::size_t k = 1; k < n / 2; ++k) {
      spec[k] *= rot[k];
      spec[n - k] *= std::conj(rot[k]);  // keep the signal real
    }
    wearlock::dsp::Ifft(spec);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = spec[i].real();
  }

  // Electro-acoustic gain: full-scale sine at volume 1 -> max_spl_at_d0.
  const double gain = std::pow(10.0, (spec_.max_spl_at_d0 - FullScaleSineSpl()) / 20.0);
  Scale(out, gain);
  return out;
}

double SpeakerModel::SplAtVolume(double volume) const {
  if (volume <= 0.0) return -1e9;
  return spec_.max_spl_at_d0 + 20.0 * std::log10(volume);
}

double SpeakerModel::VolumeForSpl(double target_spl) const {
  const double v = std::pow(10.0, (target_spl - spec_.max_spl_at_d0) / 20.0);
  return std::clamp(v, 0.0, 1.0);
}

}  // namespace wearlock::audio
