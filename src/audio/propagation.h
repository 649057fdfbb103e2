// Open-air sound propagation between a transmitter and a receiver.
//
// Implements the paper's attenuation law (§III-2): spherical spreading
// loss SPLtx - SPLrx = 20*g*log10(d/d0) (-6 dB per distance doubling for
// g = 1), plus propagation delay at the speed of sound, plus an optional
// multipath tap set. NLOS/body-blocking is modeled by attenuating the
// direct tap and boosting late reflections, which is exactly what the
// paper's tau_rms delay-spread detector looks for.
#pragma once

#include <vector>

#include "audio/signal.h"

namespace wearlock::audio {

/// Geometric spreading constant g (1 = spherical point source).
inline constexpr double kGeometricConstant = 1.0;
/// Reference distance d0: the transmitter's own mic-to-speaker distance.
/// Every spreading loss and SPL figure is relative to it.
inline constexpr double kReferenceDistanceM = 0.1;

/// One propagation path: extra travel distance and linear gain relative
/// to the direct path at the reference distance.
struct MultipathTap {
  double extra_distance_m = 0.0;
  double gain = 1.0;
};

struct PropagationSpec {
  /// Direct-path gain multiplier (< 1 when a body/hand blocks LOS).
  double direct_gain = 1.0;
  /// Body shadowing is frequency-selective: audible wavelengths (6-34 cm
  /// in the 1-6 kHz band) diffract around a hand, while near-ultrasound
  /// (~2 cm) is blocked outright. When > 0, the direct path is low-passed
  /// at this cutoff; reflections are unaffected (they travel around the
  /// body).
  double direct_lowpass_hz = 0.0;
  /// Reflections. Empty = pure LOS.
  std::vector<MultipathTap> taps;

  /// Clean line-of-sight channel.
  static PropagationSpec Los();
  /// Mild indoor multipath (desk/wall reflections), still LOS.
  static PropagationSpec IndoorLos();
  /// Body-blocked NLOS: direct path heavily attenuated, energy arrives
  /// via spread-out reflections (same-hand grip, covered speaker).
  static PropagationSpec BodyBlockedNlos();
};

class PropagationModel {
 public:
  explicit PropagationModel(PropagationSpec spec = PropagationSpec::Los());

  /// Propagate `emitted` (pressure at d0) to a receiver `distance_m`
  /// away, in its own buffer. Applies spreading loss, speed-of-sound
  /// delay (fractional samples) and the tap set.
  /// @throws std::invalid_argument if distance < reference distance.
  Samples Propagate(Samples emitted, double distance_m) const;

  /// Spreading-loss gain (linear) at a distance.
  double GainAt(double distance_m) const;

  /// Loss in dB relative to d0.
  double LossDbAt(double distance_m) const;

  const PropagationSpec& spec() const { return spec_; }

 private:
  PropagationSpec spec_;
};

}  // namespace wearlock::audio
