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

struct SceneConfig {
  SpeakerModel phone_speaker{};
  MicrophoneModel phone_mic = MicrophoneModel::Phone();
  MicrophoneModel watch_mic = MicrophoneModel::Watch();
  PropagationSpec propagation = PropagationSpec::IndoorLos();
  /// Phone -> watch distance.
  double distance_m = 0.4;
  Environment environment = Environment::kQuietRoom;
  std::optional<NoiseProfile> custom_noise;
  /// Devices share one ambient waveform (same room, within ~1 m)?
  bool co_located = true;
  /// Ambient recorded before/after the signal (samples).
  std::size_t lead_in_samples = 4096;
  std::size_t lead_out_samples = 2048;
  /// Receive-chain phase jitter (see ChannelConfig docs).
  double phase_noise_rad = 0.04;
  double phase_noise_bw_hz = 600.0;
  /// The frame's guard interval Tg (samples). The paper sizes Tg to
  /// exceed the speaker's "largest reverberation length"; the scene
  /// enforces that at build time (a ringing tail longer than the guard
  /// would silently smear into the first OFDM symbol). Matches
  /// modem::FrameSpec::preamble_guard_samples by default.
  std::size_t guard_budget_samples = 1024;
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

class TwoMicScene {
 public:
  /// @throws std::invalid_argument if the speaker's ringing tail
  /// exceeds config.guard_budget_samples (the Tg-vs-reverberation
  /// bound the paper sizes the guard interval around).
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

  void set_distance(double distance_m) { config_.distance_m = distance_m; }
  void set_propagation(const PropagationSpec& spec);
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
  Samples SharedAmbient(std::size_t n);
  Samples IndependentAmbient(std::size_t n);
  Samples MicNoise(std::size_t n, const MicrophoneModel& mic);

  SceneConfig config_;
  PropagationModel propagation_;
  NoiseSource shared_ambient_;
  NoiseSource watch_ambient_;  // used when not co-located
  std::optional<ToneJammer> jammer_;
  std::optional<ChannelImpairments> impairments_;
  sim::Rng rng_;
};

}  // namespace wearlock::audio
