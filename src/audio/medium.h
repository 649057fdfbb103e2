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

/// Ambient every channel capture records after the signal (samples).
inline constexpr std::size_t kChannelLeadOutSamples = 1024;

struct ChannelConfig {
  MicrophoneModel microphone = MicrophoneModel::Watch();
  PropagationSpec propagation = PropagationSpec::Los();
  double distance_m = 0.5;
  Environment environment = Environment::kQuietRoom;
  /// When set, overrides `environment` (e.g. the calibrated white-noise
  /// source used for the Fig. 5 Eb/N0 sweep).
  std::optional<NoiseProfile> custom_noise;
};

/// Result of pushing a signal through the channel.
struct Reception {
  Samples recording;          ///< what the receiving mic captured
  std::size_t signal_start;   ///< ground-truth first sample of the signal
  double spl_signal_at_rx;    ///< SPL of the clean signal component
  double spl_noise_at_rx;     ///< SPL of the noise component
};

/// Every capture's signal path: `signal` through `speaker`, `path` and the
/// phase jitter, moved through the stages in one per-thread buffer that
/// keeps its capacity (no allocation once warm); valid until the next call.
Samples& RenderSignalPath(const Samples& signal, double volume,
                          const SpeakerModel& speaker,
                          const PropagationModel& path, double distance_m,
                          sim::Rng& rng);

/// The default SpeakerModel feeds the path; every capture opens with
/// kLeadInSamples of ambient and closes with kChannelLeadOutSamples.
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
  ChannelConfig config_;
  SpeakerModel speaker_;
  PropagationModel propagation_;
  NoiseSource ambient_;
  std::optional<ToneJammer> jammer_;
  sim::Rng rng_;
};

}  // namespace wearlock::audio
