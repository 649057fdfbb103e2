#include "audio/propagation.h"

#include <cmath>
#include <stdexcept>

#include "dsp/filter.h"
#include "dsp/resample.h"
#include "dsp/spl.h"
#include "sim/adversary.h"

namespace wearlock::audio {

PropagationSpec PropagationSpec::Los() { return PropagationSpec{}; }

PropagationSpec PropagationSpec::IndoorLos() {
  PropagationSpec spec;
  spec.taps = {
      {.extra_distance_m = 0.6, .gain = 0.18},
      {.extra_distance_m = 1.4, .gain = 0.08},
  };
  return spec;
}

PropagationSpec PropagationSpec::BodyBlockedNlos() {
  PropagationSpec spec;
  // Hand/body shadowing: low audible frequencies diffract through at
  // modest loss; the direct path above ~3 kHz (and all of the 15-20 kHz
  // band) is effectively gone. Reflections route around the body.
  spec.direct_gain = 0.5;
  spec.direct_lowpass_hz = 4500.0;
  spec.taps = {
      {.extra_distance_m = 0.5, .gain = 0.25},
      {.extra_distance_m = 1.1, .gain = 0.18},
      {.extra_distance_m = 2.3, .gain = 0.12},
      {.extra_distance_m = 3.6, .gain = 0.06},
  };
  return spec;
}

static_assert(kReferenceDistanceM > 0.0, "d0 must be positive");

PropagationModel::PropagationModel(PropagationSpec spec) : spec_(spec) {}

double PropagationModel::GainAt(double distance_m) const {
  return std::pow(10.0, -LossDbAt(distance_m) / 20.0);
}

double PropagationModel::LossDbAt(double distance_m) const {
  return wearlock::dsp::SpreadingLossDb(distance_m, kReferenceDistanceM,
                                        kGeometricConstant);
}

Samples PropagationModel::Propagate(Samples emitted, double distance_m) const {
  if (distance_m < kReferenceDistanceM) {
    throw std::invalid_argument(
        "PropagationModel: receiver closer than reference distance");
  }
  const double direct_gain = GainAt(distance_m) * spec_.direct_gain;
  const double direct_delay =
      distance_m / sim::kSpeedOfSoundMps * kSampleRate;

  // Every reflection starts from the emission as it left the speaker.
  const Samples source = spec_.taps.empty() ? Samples{} : emitted;
  Samples out = wearlock::dsp::DelayFractional(std::move(emitted), direct_delay);
  if (spec_.direct_lowpass_hz > 0.0) {
    wearlock::dsp::BiquadCascade::ButterworthLowPass(spec_.direct_lowpass_hz,
                                                     kSampleRate, 2)
        .ProcessBlock(out);
  }
  Scale(out, direct_gain);
  Samples echo;
  for (const MultipathTap& tap : spec_.taps) {
    const double path_m = distance_m + tap.extra_distance_m;
    const double tap_gain = GainAt(path_m) * tap.gain;
    const double tap_delay = path_m / sim::kSpeedOfSoundMps * kSampleRate;
    echo.assign(source.begin(), source.end());
    echo = wearlock::dsp::DelayFractional(std::move(echo), tap_delay);
    Scale(echo, tap_gain);
    MixInto(out, echo);
  }
  return out;
}

}  // namespace wearlock::audio
