// Ambient-noise co-location filter (paper §V "Computation Reduction",
// borrowing Sound-Proof's observation): two microphones in the same room
// record correlated ambience; microphones in different rooms do not.
// Phase 1 compares the pre-preamble segments of the phone's
// self-recording and the watch's recording; low similarity aborts the
// protocol before any heavy computation.
#pragma once

#include <cstddef>

#include "audio/signal.h"

namespace wearlock::protocol {

/// Maximum cross-correlation lag searched (samples) - covers clock skew
/// between the two recordings.
inline constexpr std::size_t kAmbientMaxLag = 2048;
/// Band-pass applied before correlation (ambient energy concentrates in
/// the low band; mic self-noise is broadband). Hz.
inline constexpr double kAmbientBandLowHz = 80.0;
inline constexpr double kAmbientBandHighHz = 2500.0;
/// Similarity below this declares "not co-located".
inline constexpr double kAmbientSimilarityThreshold = 0.55;

/// Max absolute normalized cross-correlation coefficient over the lag
/// range, after band-passing both inputs. Returns 0 for degenerate
/// (too-short or silent) inputs.
double AmbientSimilarity(const audio::Samples& phone_ambient,
                         const audio::Samples& watch_ambient);

}  // namespace wearlock::protocol
