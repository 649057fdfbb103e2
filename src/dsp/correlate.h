// Cross-correlation primitives.
//
// The modem finds its chirp preamble with a normalized sliding
// cross-correlator (paper §III-4); the NLOS detector builds a delay
// profile from the same correlation; the ambient-noise co-location filter
// correlates noise recordings from phone and watch.
//
// The *Into variants are the hot path: they run on a dsp::Workspace and
// write into caller-sized output, so steady-state calls allocate
// nothing. NormalizedCrossCorrelate returns a vector from the same code
// (identical values). Every FFT correlation runs one body
// that takes the template's zero-padded spectrum as input: a template
// that recurs across calls (the preamble) gets it from SpectrumCache,
// any other template has it transformed per call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dsp/fft.h"

namespace wearlock::dsp {

class FftPlan;    // dsp/fft_plan.h
class Workspace;  // dsp/workspace.h

/// Linear cross-correlation r[k] = sum_n x[n+k] * y[n] for
/// k in [0, x.size() - y.size()] (valid lags only), computed via FFT in
/// O(N log N) and written into `out`, which the caller must size to the
/// lag count x.size() - y.size() + 1. y's spectrum is transformed into
/// ws slot CSlot::kCorrY, and the correlation body's scratch is
/// CSlot::kCorrX.
/// @throws std::invalid_argument if y is empty or longer than x, or
/// `out` is mis-sized.
void CrossCorrelateFftInto(std::span<const double> x,
                           std::span<const double> y, Workspace& ws,
                           std::span<double> out);

/// Normalized sliding correlation: each lag's score is divided by
/// ||x_window|| * ||y||, yielding values in [-1, 1]. Zero-energy windows
/// score 0. This is the detector statistic the paper thresholds (0.05).
std::vector<double> NormalizedCrossCorrelate(std::span<const double> x,
                                             std::span<const double> y);

/// Workspace NormalizedCrossCorrelate for a template that recurs across
/// calls, such as a preamble: identical values into `out` (caller-sized
/// to the lag count, may be a Workspace real slot), with y's spectrum
/// from SpectrumCache::Shared() instead of a transform per call.
void NormalizedCrossCorrelateCachedInto(std::span<const double> x,
                                        std::span<const double> y,
                                        Workspace& ws, std::span<double> out);

/// Thread-safe, process-wide map of template spectra, keyed by the
/// template's exact sample bits and the FFT size. Entries are immutable
/// and never evicted, so a returned span stays valid for the life of
/// the process; only the first request for a key allocates.
class SpectrumCache {
 public:
  /// The forward transform of `samples` zero-padded to plan.size(),
  /// built with `plan` on first request (bit-identical to transforming
  /// it on every call).
  std::span<const Complex> Get(std::span<const double> samples,
                               const FftPlan& plan);

  /// Lifetime lookup counters. Steady state is all hits: one miss per
  /// (template, size) key.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The process-wide cache the preamble detector uses.
  static SpectrumCache& Shared();

 private:
  struct Entry {
    RealVec samples;
    ComplexVec spectrum;
  };
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<const Entry>> entries_;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

struct PeakResult {
  std::size_t index = 0;  ///< lag of the maximum score
  double score = 0.0;     ///< value at the maximum
};

/// Index and value of the maximum element. @throws if empty.
PeakResult FindPeak(std::span<const double> scores);

}  // namespace wearlock::dsp
