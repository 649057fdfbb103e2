// Ambient noise sources and the tone jammer.
//
// BER in WearLock is driven by in-band noise power, so each of the
// paper's test environments (quiet room, office, classroom, cafe, grocery
// store) is modeled as shaped Gaussian noise - energy concentrated below
// a few kHz, as the paper notes ("the frequency range of most ambient
// noise in our scenarios is below 15kHz") - plus environment-specific
// tonal components (HVAC, machinery), calibrated to a target SPL.
//
// The ToneJammer reproduces the Fig. 9 experiment: an external speaker
// (Audacity, <= 6 mono tracks) playing sine tones into chosen OFDM
// sub-channels.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "audio/microphone.h"
#include "audio/signal.h"
#include "sim/rng.h"

namespace wearlock::audio {

enum class Environment {
  kQuietRoom,     // the paper's reference: 15-20 dB SPL
  kOffice,
  kClassroom,
  kCafe,
  kGroceryStore,
};

std::string ToString(Environment env);

struct NoiseProfile {
  double spl_db = 17.0;          ///< target ambient SPL
  double lowpass_hz = 1200.0;    ///< bulk-energy shaping cutoff
  double broadband_mix = 0.15;   ///< fraction of unshaped (white) energy
  std::vector<double> tone_hz;   ///< machinery/HVAC tones
  double tone_mix = 0.0;         ///< fraction of energy in tones

  static NoiseProfile For(Environment env);
};

/// Generates ambient noise buffers at a calibrated SPL. Each source holds
/// its own RNG stream, so two co-located receivers can share one source
/// (correlated ambience) while distant ones use independent sources - the
/// property the Sound-Proof-style co-location filter relies on.
class NoiseSource {
 public:
  NoiseSource(NoiseProfile profile, sim::Rng rng);
  NoiseSource(Environment env, sim::Rng rng);

  /// Overwrites `out` with ambient noise at the profile's SPL.
  Samples Generate(Samples out);

 private:
  NoiseProfile profile_;
  sim::Rng rng_;
  double tone_phase_seed_;
  std::size_t samples_generated_ = 0;  // keeps tone phase continuous
};

/// RMS of the receive-chain phase jitter (radians). Models ADC clock
/// jitter / hand micro-Doppler: corrupts the phase dimension while
/// leaving envelopes nearly intact - the reason the paper's hardware
/// favours ASK over PSK per bit and cannot use 16QAM.
inline constexpr double kPhaseJitterRmsRad = 0.04;
/// Bandwidth of the phase-jitter process (Hz). Faster than the symbol
/// rate, so per-symbol pilot equalization cannot fully track it.
inline constexpr double kPhaseJitterBandwidthHz = 600.0;

/// Receive-chain phase jitter: rotates x's phase by a Gaussian process
/// of RMS kPhaseJitterRmsRad radians, low-passed to
/// kPhaseJitterBandwidthHz, in x's buffer. Every capture path
/// (TwoMicScene, AcousticChannel) applies it. Draws x.size() Gaussians
/// from `rng` unless x is empty, in which case x is returned unchanged.
Samples ApplyPhaseJitter(Samples x, sim::Rng& rng);

/// `mic`'s self-noise floor added to `pressure` in its own buffer:
/// pressure.size() Gaussian draws from `rng` (the medium owns the RNG).
Samples AddSelfNoise(Samples pressure, const MicrophoneModel& mic,
                     sim::Rng& rng);

/// Up to `kMaxTones` sine tones, each aimed at the centre frequency of an
/// OFDM sub-channel (bin index at a given FFT size / sample rate).
class ToneJammer {
 public:
  static constexpr std::size_t kMaxTones = 6;  // Audacity's track limit

  /// @param bin_indices FFT bin indices to jam (1-based like the paper's
  /// channel indexing); at most kMaxTones entries.
  /// @param fft_size FFT size defining bin width.
  /// @param spl_db jammer loudness at the victim microphone.
  /// @throws std::invalid_argument if more than kMaxTones bins are given.
  ToneJammer(std::vector<std::size_t> bin_indices, std::size_t fft_size,
             double spl_db);

  /// n samples of the jamming waveform.
  Samples Generate(std::size_t n) const;

 private:
  std::vector<std::size_t> bins_;
  std::size_t fft_size_;
  double spl_db_;
};

}  // namespace wearlock::audio
