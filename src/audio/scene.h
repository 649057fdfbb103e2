// TwoMicScene: the full acoustic scene of an unlock attempt - one phone
// (speaker + self-recording mic) and one watch (mic only) in a shared
// environment.
//
// Unlike AcousticChannel (single TX->RX path, used for modem-level
// experiments), the scene renders both ambient recordings from one
// shared ambient-noise waveform when the devices are co-located. That
// correlation is exactly what the Sound-Proof-style ambient similarity
// filter keys on; scenes with co_located=false give each mic independent
// ambience of the same environment class. Only the watch records the
// phone's emissions: the protocol decodes the watch's capture alone.
#pragma once

#include <cstddef>
#include <optional>

#include "audio/impairments.h"
#include "audio/microphone.h"
#include "audio/noise.h"
#include "audio/propagation.h"
#include "audio/signal.h"
#include "audio/speaker.h"
#include "sim/rng.h"

namespace wearlock::audio {

/// Ambient every scene capture records after the signal (samples).
inline constexpr std::size_t kSceneLeadOutSamples = 2048;

struct SceneConfig {
  SpeakerModel phone_speaker{};
  MicrophoneModel watch_mic = MicrophoneModel::Watch();
  PropagationSpec propagation = PropagationSpec::IndoorLos();
  /// Phone -> watch distance.
  double distance_m = 0.4;
  Environment environment = Environment::kQuietRoom;
  std::optional<NoiseProfile> custom_noise;
  /// Devices share one ambient waveform (same room, within ~1 m)?
  bool co_located = true;
};

/// What the watch captured of one transmission.
struct SceneReception {
  /// Always empty: nothing reads the phone's self-recording of an
  /// emission. The field stays while the benchmark reads its size.
  Samples phone_recording;
  Samples watch_recording;  ///< signal after propagation to distance_m
  std::size_t signal_start = 0;  ///< ground truth
  double watch_spl_signal = 0.0;
  double watch_spl_noise = 0.0;
};

/// One phone (speaker + full-band MicrophoneModel::Phone() mic) and one
/// watch. Every capture opens with kLeadInSamples of ambient and closes
/// with kSceneLeadOutSamples; the phone's emission lands at
/// kLeadInSamples.
class TwoMicScene {
 public:
  /// @throws std::invalid_argument if the speaker's ringing tail
  /// exceeds the guard interval Tg (kGuardIntervalSamples): the paper
  /// sizes Tg past the speaker's "largest reverberation length", and a
  /// longer tail would silently smear into the first OFDM symbol.
  TwoMicScene(SceneConfig config, sim::Rng rng);

  /// Phone plays `signal` at `volume`; only the watch records (the
  /// phone mic's self-noise draws are still consumed).
  SceneReception TransmitFromPhone(const Samples& signal, double volume);

  /// Ambient-only recordings (phone, watch) of n samples each.
  std::pair<Samples, Samples> RecordAmbientPair(std::size_t n);

  /// What a third microphone at `distance_m` (with its own propagation
  /// spec) would capture of the same transmission - the eavesdropper /
  /// co-located-attacker view. Independent ambient mix-in. `gain_db`
  /// models directional (parabolic/shotgun) gear: on-axis signal is
  /// boosted relative to the diffuse ambient and the mic's self-noise,
  /// the attacker-generous worst case.
  Samples RecordAtDistance(const Samples& signal, double volume,
                           double eavesdropper_distance_m,
                           const PropagationSpec& path, double gain_db = 0.0);

  // NOLINTNEXTLINE(test-only-export): moves the watch between attempts.
  void set_distance(double distance_m) { config_.distance_m = distance_m; }
  void SetJammer(std::optional<ToneJammer> jammer) { jammer_ = std::move(jammer); }
  const SceneConfig& config() const { return config_; }

  /// Arm a channel-impairment plan. The rng must be forked from the
  /// session seed *after* every pre-existing fork (the doctrine in
  /// impairments.h): an unarmed scene never consults it, so unimpaired
  /// sessions replay byte-identically. `rx_guard_samples` extends the
  /// watch's capture window (hardened receiver's drift margin).
  void ArmImpairments(const ImpairmentPlan& plan, sim::Rng rng,
                      std::size_t rx_guard_samples);

  /// Armed impairment state, or nullptr for the clean scene.
  ChannelImpairments* impairments() { return impairments_ ? &*impairments_ : nullptr; }
  const ChannelImpairments* impairments() const {
    return impairments_ ? &*impairments_ : nullptr;
  }

  /// Advance the acoustic timeline without capturing (MAC backoff
  /// waits): neighbors' duty cycles progress while the phone holds off.
  void AdvanceTimeMs(double ms);

 private:
  SceneConfig config_;
  PropagationModel propagation_;
  NoiseSource shared_ambient_;
  NoiseSource watch_ambient_;  // used when not co-located
  std::optional<ToneJammer> jammer_;
  std::optional<ChannelImpairments> impairments_;
  sim::Rng rng_;
};

}  // namespace wearlock::audio
