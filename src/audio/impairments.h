// Deterministic channel impairments: the crowded-world pack.
//
// The clean-room scene (one watch, one phone, static multipath) is the
// best case every credible aerial-acoustic evaluation sweeps *away*
// from ("Evaluating Acoustic Data Transmission Schemes", PAPERS.md):
//   * sro      - TX/RX sample-rate offset. Consumer clocks drift tens
//     of ppm; the warp over one 50 ms frame is sub-sample, but the
//     *accumulated* offset since the devices last synced clocks shifts
//     the watch's capture window by whole milliseconds, cutting the
//     frame tail out of a nominally-sized recording.
//   * doppler  - a constant-velocity walker. v/c at walking speed is
//     ~4000 ppm: a uniform time warp that both stretches the frame and
//     slides every OFDM tone off its bin centre (inter-carrier
//     interference).
//   * reverb   - parametric RT60 room tail layered on the existing
//     multipath taps: a sparse velvet-noise late field with
//     exponential decay, applied to the watch path after propagation.
//   * burst    - nonstationary ambient: probabilistic loud noise
//     bursts inside a capture (door slam, passing cart).
//   * pairs    - N co-located WearLock pairs sharing the band. Each
//     neighbor is a duty-cycled multitone transmitter parked on a
//     deterministic subset of the audible OFDM bins, mixed into both
//     mics of the shared scene - the contention the acoustic MAC and
//     the carrier-sense sub-band reselection exist for.
//
// RNG-fork doctrine (docs/channels.md): the impairment stream forks
// from the session RNG *after* the scene/link/motion/fault forks, and
// the scene only consults it when a plan is armed, so unimpaired
// sessions replay byte-identically with or without this module linked.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "audio/signal.h"
#include "sim/rng.h"

namespace wearlock::audio {

/// Seconds since the watch and phone last synchronized clocks: the
/// lever that turns ppm-level SRO into a whole-milliseconds capture
/// misalignment. The channel model slides the watch's capture window
/// by sro * kClockAgeS, and modem::EstimateDrift divides the observed
/// shift by it to recover the SRO.
inline constexpr double kClockAgeS = 1400.0;

/// Declarative description of the channel impairments to simulate.
/// Defaults are all-off; a default plan leaves the scene untouched.
struct ImpairmentPlan {
  /// TX clock fast relative to RX by this many parts-per-million
  /// (>= 0; the emitted waveform is fractionally resampled and the
  /// watch capture window slides by sro * kClockAgeS).
  double sro_ppm = 0.0;
  /// Radial walker velocity, m/s; positive recedes (stretches),
  /// negative approaches (compresses). |v| <= 5 m/s.
  double doppler_mps = 0.0;
  /// Room RT60 (ms): time for the late reverb field to decay 60 dB.
  double reverb_rt60_ms = 0.0;
  /// P(noise burst) per capture, and the burst's amplitude multiplier
  /// over the capture's ambient RMS.
  double burst_p = 0.0;
  double burst_mult = 8.0;
  /// Co-located neighboring watch/phone pairs contending for the band.
  std::size_t pairs = 0;
  /// The CLI-grammar spec this plan was parsed from ("" for plans
  /// built field-by-field); retained verbatim for telemetry cohorts.
  std::string spec;

  bool empty() const;

  /// Parse a CLI-style spec: comma-separated entries of
  ///   sro=PPM | doppler=MPS | reverb=RT60MS | burst=P[xM] | pairs=N
  /// e.g. "sro=60,reverb=350,pairs=2".
  /// @throws std::invalid_argument on malformed entries or
  /// out-of-range values (negative ppm, |doppler| > 5, RT60 > 2000 ms,
  /// burst multiplier < 1, pairs > 64).
  [[nodiscard]] static ImpairmentPlan Parse(const std::string& spec);
};

/// One impairment event, stamped with the acoustic-timeline time it
/// happened; the ordered list is the session's channel trace.
struct ChannelEvent {
  std::string kind;
  std::string detail;
  double at_ms = 0.0;
};

/// Serialize a channel trace as JSONL (one event object per line) -
/// the format tests/golden/impaired_unlock_trace.jsonl pins.
std::string ChannelTraceJsonl(const std::vector<ChannelEvent>& events);

/// One neighboring pair's transmitter: a duty-cycled multitone burst
/// source parked on fixed OFDM bins. Stateless given the scene cursor,
/// so its waveform is a pure function of (schedule, cursor) and mixes
/// identically at any thread count.
struct NeighborTransmitter {
  std::vector<std::size_t> bins;  ///< occupied bins (1-based, paper indexing)
  std::size_t period_samples = 0;
  std::size_t on_samples = 0;
  std::size_t offset_samples = 0;
  double spl_db = 0.0;
  std::vector<double> phases;  ///< per-tone phase offsets (radians)

  /// True when the transmitter is radiating at absolute sample `t`.
  bool ActiveAt(std::size_t t) const;
};

/// Executes an ImpairmentPlan against one scene. Not thread-safe: one
/// instance belongs to one scene, like the scene's Rng.
class ChannelImpairments {
 public:
  /// @param rng forked from the session seed after all pre-existing
  /// forks (scene, link, motion, faults) - see the doctrine above.
  /// @param rx_guard_samples extra capture the (hardened) watch tacks
  /// onto its nominal window so drift-shifted frames keep their tail;
  /// 0 models the naive fixed-length recorder.
  ChannelImpairments(ImpairmentPlan plan, sim::Rng rng,
                     std::size_t rx_guard_samples = 0);

  std::size_t rx_guard_samples() const { return rx_guard_; }

  /// Apply SRO+Doppler warp and the RT60 late field to the propagated
  /// watch-path signal (phone self-recording is unaffected: the phone
  /// hears itself through its own clock at zero relative velocity).
  Samples ApplyWatchPath(Samples at_watch);

  /// Re-window a rendered watch capture for the clock offset: content
  /// slides `window_shift` samples later (the head gap is tiled with
  /// the rendering's first `ambient_head_samples`, the signal-free
  /// lead-in), and the window is extended by `rx_guard_samples` so a
  /// hardened receiver keeps the tail. A shift at or past the window
  /// length leaves pure ambience - the window missed the frame
  /// entirely, which is exactly how a naive fixed-length recorder
  /// loses a badly drifted capture.
  Samples ShiftCaptureWindow(Samples rendered,
                             std::size_t ambient_head_samples);

  /// Maybe one noise burst for an n-sample capture starting at the
  /// current cursor: empty when no burst fires, else an n-sample
  /// waveform with the burst at its drawn position (mixed into *both*
  /// mics of a co-located scene, like any loud environmental event).
  /// Draws (chance, start, length, waveform) in fixed order.
  Samples MaybeBurst(std::size_t n, double ambient_rms);

  /// Sum of all neighbor transmissions over [cursor, cursor + n).
  Samples NeighborWaveform(std::size_t n) const;

  bool has_neighbors() const { return !neighbors_.empty(); }
  // NOLINTNEXTLINE(test-only-export): the bins reselection must avoid.
  const std::vector<NeighborTransmitter>& neighbors() const {
    return neighbors_;
  }

  /// Advance the acoustic-timeline cursor (samples since scene start).
  /// Captures and MAC backoff waits advance it, so re-listening after a
  /// backoff sees every neighbor's duty cycle progressed.
  void AdvanceCursor(std::size_t samples) { cursor_ += samples; }

  /// Append a protocol-side event (MAC defer, drift estimate, degrade)
  /// to the channel trace, stamped by the caller's clock.
  void RecordEvent(const std::string& kind, const std::string& detail,
                   double at_ms);

  const std::vector<ChannelEvent>& events() const { return events_; }

 private:
  void Record(const std::string& kind, const std::string& detail);

  ImpairmentPlan plan_;
  sim::Rng rng_;
  std::size_t rx_guard_ = 0;
  double warp_rate_ = 1.0;  ///< watch time-warp: (1 + sro) / (1 + v/c)
  std::size_t window_shift_ = 0;  ///< capture-window misalignment, samples
  Samples reverb_ir_;  ///< late-field IR (empty when reverb is off)
  std::vector<NeighborTransmitter> neighbors_;
  std::size_t cursor_ = 0;
  std::vector<ChannelEvent> events_;
};

}  // namespace wearlock::audio
