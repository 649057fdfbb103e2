// AcousticChannel: one transmitter -> receiver acoustic path with
// environment noise, assembled from the speaker, propagation, microphone
// and noise models. This is what the paper's physical testbed (phone
// speaker, air, watch mic, ambient room) collapses into for simulation.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "audio/microphone.h"
#include "audio/noise.h"
#include "audio/propagation.h"
#include "audio/signal.h"
#include "audio/speaker.h"
#include "sim/rng.h"

namespace wearlock::audio {

struct ChannelConfig {
  SpeakerModel speaker{};
  MicrophoneModel microphone = MicrophoneModel::Watch();
  PropagationSpec propagation = PropagationSpec::Los();
  double distance_m = 0.5;
  Environment environment = Environment::kQuietRoom;
  /// When set, overrides `environment` (e.g. the calibrated white-noise
  /// source used for the Fig. 5 Eb/N0 sweep).
  std::optional<NoiseProfile> custom_noise;
  /// Ambient noise recorded before the signal arrives (samples); gives
  /// the receiver material for noise-floor estimation and gives the
  /// protocol its pre-preamble ambient window.
  std::size_t lead_in_samples = 4096;
  std::size_t lead_out_samples = 1024;
  /// RMS of the receive-chain phase jitter (radians). Models ADC clock
  /// jitter / hand micro-Doppler: corrupts the phase dimension while
  /// leaving envelopes nearly intact - the reason the paper's hardware
  /// favours ASK over PSK per bit and cannot use 16QAM.
  double phase_noise_rad = 0.04;
  /// Bandwidth of the phase-jitter process (Hz). Faster than the symbol
  /// rate, so per-symbol pilot equalization cannot fully track it.
  double phase_noise_bw_hz = 600.0;
  /// Radial velocity of the receiver (m/s, positive = approaching).
  /// Walking while unlocking Doppler-shifts the whole signal by a factor
  /// (1 + v/c); the chirp preamble is chosen precisely because its
  /// correlation tolerates this (paper SIII-3).
  double radial_velocity_mps = 0.0;
};

/// Result of pushing a signal through the channel.
struct Reception {
  Samples recording;          ///< what the receiving mic captured
  std::size_t signal_start;   ///< ground-truth first sample of the signal
  double spl_signal_at_rx;    ///< SPL of the clean signal component
  double spl_noise_at_rx;     ///< SPL of the noise component
};

class AcousticChannel {
 public:
  AcousticChannel(ChannelConfig config, sim::Rng rng);

  /// Transmit `signal` at speaker `volume`; returns the receiver-side
  /// recording (lead-in noise + propagated signal + noise + lead-out).
  Reception Transmit(const Samples& signal, double volume);

  /// Install (or clear) a tone jammer audible at the receiver.
  void SetJammer(std::optional<ToneJammer> jammer);

  const ChannelConfig& config() const { return config_; }

 private:
  Samples MakeNoise(std::size_t n);

  ChannelConfig config_;
  PropagationModel propagation_;
  NoiseSource ambient_;
  std::optional<ToneJammer> jammer_;
  sim::Rng rng_;
};

}  // namespace wearlock::audio
