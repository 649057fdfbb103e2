// Cross-correlation primitives.
//
// The modem finds its chirp preamble with a normalized sliding
// cross-correlator (paper §III-4); the NLOS detector builds a delay
// profile from the same correlation; the ambient-noise co-location filter
// correlates noise recordings from phone and watch.
//
// The *Into variants are the hot path: they run on a dsp::Workspace and
// write into caller-sized output, so steady-state calls allocate
// nothing. The vector-returning signatures are compatibility shims over
// the same code (identical values).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wearlock::dsp {

class Workspace;  // dsp/workspace.h

/// Linear cross-correlation r[k] = sum_n x[n+k] * y[n] for
/// k in [0, x.size() - y.size()] (valid lags only; requires
/// x.size() >= y.size()). Direct O(N*M) evaluation.
/// @throws std::invalid_argument if y is empty or longer than x.
std::vector<double> CrossCorrelate(std::span<const double> x,
                                   std::span<const double> y);

/// Same result as CrossCorrelate but computed via FFT in O(N log N).
std::vector<double> CrossCorrelateFft(std::span<const double> x,
                                      std::span<const double> y);

/// Workspace CrossCorrelateFft: identical values written into `out`,
/// which the caller must size to the lag count x.size() - y.size() + 1.
/// Scratch lives in ws slots CSlot::kCorrX/kCorrY.
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out);

/// Normalized sliding correlation: each lag's score is divided by
/// ||x_window|| * ||y||, yielding values in [-1, 1]. Zero-energy windows
/// score 0. This is the detector statistic the paper thresholds (0.05).
std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y);

/// Workspace NormalizedCrossCorrelate: identical values into `out`
/// (caller-sized to the lag count, may be a Workspace real slot).
void NormalizedCrossCorrelateInto(std::span<const double> x,
                                  std::span<const double> y, Workspace& ws,
                                  std::span<double> out);

struct PeakResult {
  std::size_t index = 0;  ///< lag of the maximum score
  double score = 0.0;     ///< value at the maximum
};

/// Index and value of the maximum element. @throws if empty.
PeakResult FindPeak(std::span<const double> scores);

}  // namespace wearlock::dsp
