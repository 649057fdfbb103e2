// Acoustic distance bounding - the paper's other proposed relay defense
// (§IV, citing Brands-Chaum [26]).
//
// Sound is slow: 1 m of air costs 2.9 ms, an eternity next to radio.
// The phone timestamps the chirp's emission; the watch timestamps its
// arrival (clocks are coarsely synchronized over the wireless link) and
// reports it back. distance ~= c * (t_arrive - t_emit). Any relay must
// add capture + re-emission + propagation time, inflating the estimate
// well past the secure bound - a relay cannot make sound travel faster.
//
// The dominant error source is the BT clock synchronization (sub-ms with
// NTP-style exchange over the link), modeled as Gaussian skew.
#pragma once

#include <functional>

#include "audio/scene.h"
#include "modem/frame.h"
#include "sim/rng.h"

namespace wearlock::protocol {

/// A live splice on the phone->watch acoustic path: given the emitted
/// waveform and the transmit volume, returns what the watch's mic
/// captures instead of the scene's direct rendering - the relay
/// attacker's hook (attack_agents.h). The splice owns alignment: the
/// scene convention that emission time zero sits at
/// audio::kLeadInSamples is preserved, so any path or
/// handling latency the attacker adds lands as a *later* signal offset
/// in the returned capture - exactly what the ranging below measures.
using AcousticSplice =
    std::function<audio::Samples(const audio::Samples& emission,
                                 double volume)>;

/// Stddev of the phone-watch clock synchronization error (ms). 0.3 ms
/// ~= 10 cm of ranging error.
inline constexpr double kClockSyncErrorStdMs = 0.3;
/// Jitter (stddev, ms) of the fixed processing latency between "sample
/// hits the mic" and the watch's timestamp; the latency itself is known
/// and compensated.
inline constexpr double kDetectionJitterStdMs = 0.15;
/// The secure bound: estimates beyond this are rejected.
inline constexpr double kMaxRangingDistanceM = 1.3;

struct RangingResult {
  bool chirp_detected = false;
  double estimated_distance_m = 0.0;
  bool within_bound = false;
};

/// One ranging round against a scene. `relay_delay_ms` injects the extra
/// latency a live relay adds (capture, transport, re-emission); 0 for
/// the legitimate case. When `splice` is non-null (and non-empty), the
/// chirp reaches the watch through it instead of the scene - any delay
/// the splice embeds shows up in the arrival offset on top of
/// relay_delay_ms.
RangingResult AcousticRange(audio::TwoMicScene& scene,
                            const modem::FrameSpec& frame_spec, double volume,
                            sim::Rng& rng, double relay_delay_ms = 0.0,
                            const AcousticSplice* splice = nullptr);

/// Multi-round ranging: median of `rounds` estimates (robust to single
/// outliers), with the same bound check.
RangingResult AcousticRangeMedian(audio::TwoMicScene& scene,
                                  const modem::FrameSpec& frame_spec,
                                  double volume, sim::Rng& rng, int rounds,
                                  double relay_delay_ms = 0.0,
                                  const AcousticSplice* splice = nullptr);

}  // namespace wearlock::protocol
