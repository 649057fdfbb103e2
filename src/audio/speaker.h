// Phone speaker model.
//
// Reproduces the two hardware artifacts the paper designs around
// (§III "Microphone and Speaker Characteristics"):
//   * rise effect  - the driver cannot reach full excursion instantly, so
//     signal onsets are low-passed by an attack envelope;
//   * ringing      - the driver keeps radiating after the input stops,
//     modeled as convolution with an exponentially decaying reverberation
//     tail.
// Plus volume control (the knob WearLock uses to bound the secure range)
// and hard clipping at full scale.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "audio/signal.h"
#include "dsp/fft.h"

namespace wearlock::audio {

struct SpeakerSpec {
  /// Time constant of the rise (attack) envelope, seconds.
  double rise_time_s = 0.002;
  /// Length of the ringing tail, seconds (paper sizes the guard interval
  /// Tg to exceed this "largest reverberation length").
  double ringing_tail_s = 0.015;
  /// Tail decay: amplitude falls by this factor over the tail length.
  double ringing_decay = 1e-3;
  /// Relative energy of the ringing tail vs. the direct output.
  double ringing_level = 0.08;
  /// Full-scale output ceiling (samples are clipped here).
  double clip_level = 1.0;
  /// SPL produced at the reference distance d0 by a full-scale sine at
  /// volume 1.0 (dB). A phone loudspeaker driven hard reaches ~100 dB at
  /// 10 cm.
  double max_spl_at_d0 = 100.0;
  /// Peak of the static per-frequency phase ripple (radians). Models the
  /// "uneven responses of amplitude modulation and phase modulation of
  /// the audio hardware" (paper §III-7): tiny drivers have ragged phase
  /// response, so phase-bearing constellations (PSK/QAM) need more SNR
  /// per bit than amplitude-only ones (ASK), and 16QAM is effectively
  /// unusable. Set 0 to disable (ideal speaker).
  double phase_ripple_rad = 0.25;
  /// Ripple fine-structure periods in Hz. Shorter than twice the modem's
  /// pilot spacing (~689 Hz), so pilot interpolation cannot track it.
  double ripple_period1_hz = 910.0;
  double ripple_period2_hz = 567.0;
  /// Per-unit manufacturing variation: the ripple phases differ from
  /// driver to driver, giving each speaker a stable spectral signature -
  /// the basis of the hardware-fingerprinting relay defense (paper §IV).
  double ripple_phase1_rad = 0.0;
  double ripple_phase2_rad = 1.3;
};

/// Thread-safe table of values SpeakerModel::Emit derives from its spec
/// alone, keyed by the exact bits of the doubles they depend on (and a
/// transform size). Each key is built once, under one lock, and counted
/// as one miss; entries are never evicted, so a span stays valid.
template <typename Table, typename T, std::size_t KeyWords>
class SpeakerTable {
 public:
  /// Lifetime lookup counters; steady state is all hits.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The process-wide table every SpeakerModel uses, leaked on purpose:
  /// spans into the entries must outlive every worker thread.
  static Table& Shared() {
    static Table* const table = new Table();  // NOLINT(banned-api): intentional leak
    return *table;
  }

 protected:
  using Key = std::array<std::uint64_t, KeyWords>;

  template <typename Build>
  std::span<const T> Find(const Key& key, const Build& build) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [entry, fresh] = entries_.try_emplace(key);
    if (fresh) entry->second = build();
    (fresh ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    return entry->second;
  }

 private:
  std::mutex mu_;
  std::map<Key, std::vector<T>> entries_;  // guarded by mu_; nodes never move
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// The static phase-ripple rotations Emit applies to its output
/// spectrum, keyed by the transform size and the five ripple fields.
class PhaseRippleTable
    : public SpeakerTable<PhaseRippleTable, wearlock::dsp::Complex, 6> {
 public:
  /// rot[k] for 1 <= k < n/2 (rot[0] is unused): the unit rotation by
  /// the ripple phase at bin k's frequency k * fs / n, bit-identical to
  /// evaluating it on every call.
  std::span<const wearlock::dsp::Complex> Get(const SpeakerSpec& spec,
                                              std::size_t n);
};

/// The rise (attack) envelope Emit multiplies its drive by, keyed by the
/// time constant tau in samples.
class RiseEnvelopeTable : public SpeakerTable<RiseEnvelopeTable, double, 1> {
 public:
  /// env[n] = 1 - exp(-(n + 1) / tau) for a finite tau > 0, as Emit
  /// evaluated it per sample, up to the first n where it rounds to 1.0;
  /// every later term shrinks by ~1/tau, far past exp's error, so it
  /// rounds to 1.0 too, and x * 1.0 == x leaves those samples' bits.
  std::span<const double> Get(double tau);
};

class SpeakerModel {
 public:
  explicit SpeakerModel(SpeakerSpec spec = {});

  /// Render `drive` (digital signal in [-1, 1]) at `volume` in [0, 1] in
  /// its own buffer: the pressure signal emitted at the reference distance
  /// d0, with rise/ringing applied, longer by the ringing tail.
  /// @throws std::invalid_argument if volume is outside [0, 1].
  Samples Emit(Samples drive, double volume) const;

  /// SPL (dB at d0) a full-scale sine would produce at `volume`.
  double SplAtVolume(double volume) const;

  /// Volume needed to hit `target_spl` dB at d0 (clamped to [0, 1]).
  double VolumeForSpl(double target_spl) const;

  const SpeakerSpec& spec() const { return spec_; }

 private:
  SpeakerSpec spec_;
  Samples ringing_ir_;  // precomputed impulse response (direct + tail)
};

}  // namespace wearlock::audio
