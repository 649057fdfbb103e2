// Cached FFT plans: a bit-reversed gather table plus shared per-stage
// twiddle tables.
//
// dsp::FftPlan is an immutable, size-keyed execution plan for one
// radix-2 decimation-in-time transform. Execute() runs it in split
// layout (real and imaginary parts in separate arrays of this thread's
// dsp::Workspace) on two-lane vectors: one gather in bit-reversed order
// fused with the length-2 stage, then the remaining stages two per
// pass, then one pass that interleaves the result back into the
// caller's buffer (and, for Inverse(), applies the 1/N). Every element
// gets the textbook butterfly's IEEE operations in its order,
// v = (xr*wr - xi*wi, xr*wi + xi*wr), lo = u + v, hi = u - v, so the
// output is bit-identical to the interleaved scalar loop
// (tests/fft_plan_test.cpp keeps that loop as the reference).
//
// The twiddles of stage `len` come from the `w *= wlen` recurrence,
// which restarts at every stage, so the table for `len` is the same in
// every plan of size >= len. dsp::TwiddleTables builds each stage once
// per process and plans point into it.
//
// dsp::PlanCache shares immutable plans across threads: Get() takes a
// mutex for the map lookup, but the returned plan is const and
// lock-free to execute. Hot paths fetch their plans once (at component
// construction or first use) and never touch the cache per symbol.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>

#include "dsp/fft.h"

namespace wearlock::dsp {

class FftPlan {
 public:
  /// @throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place unscaled transform of data[0..size()); `inverse` flips the
  /// twiddle sign. Matches the legacy dsp::Fft transform bit-for-bit.
  void Execute(Complex* data, bool inverse) const;

  /// Forward transform (same result as dsp::Fft).
  void Forward(Complex* data) const { Execute(data, /*inverse=*/false); }

  /// Inverse transform including the 1/N normalization (same as dsp::Ifft).
  void Inverse(Complex* data) const;

  /// Stage `len`'s twiddles (2 <= len <= size(), a power of two) as this
  /// plan uses them: the shared TwiddleTables entry.
  // NOLINTNEXTLINE(test-only-export): pins that plans share stage tables.
  std::span<const double> StageTwiddles(std::size_t len, bool inverse) const;

 private:
  /// The one kernel body behind Execute() and Inverse(); `scale`
  /// multiplies every output by 1/N in the interleave pass.
  void SplitTransform(Complex* data, bool inverse, bool scale) const;

  std::size_t n_ = 0;
  // Bit-reversed source index of each length-2 butterfly's first input;
  // its second input is that index + n/2.
  std::vector<std::uint32_t> gather_;
  // Per stage (length 2, 4, ..., n): the shared twiddle tables.
  std::vector<const double*> fwd_, inv_;
};

/// Process-wide, thread-safe store of per-stage twiddle tables. Stage
/// `len` holds w_k for k < len/2 in split layout: len/2 real parts, then
/// len/2 imaginary parts, each from the `w *= wlen` recurrence (w_0 =
/// 1). Entries are immutable and never freed, so a returned span stays
/// valid for the life of the process; only the first request for a
/// stage allocates.
class TwiddleTables {
 public:
  /// @throws std::invalid_argument unless `len` is a power of two >= 2.
  std::span<const double> Get(std::size_t len, bool inverse);

  /// The store every FftPlan points into.
  static TwiddleTables& Shared();

 private:
  struct Stage {
    RealVec fwd, inv;
  };
  std::mutex mu_;
  std::array<std::unique_ptr<const Stage>, 64> stages_;  // by log2(len), guarded by mu_
};

/// Thread-safe map of shared immutable plans, keyed by FFT size.
class PlanCache {
 public:
  /// The cached plan for size `n`, built on first request.
  /// @throws std::invalid_argument unless `n` is a power of two.
  std::shared_ptr<const FftPlan> Get(std::size_t n);

  /// Lifetime lookup counters (also exported as the obs counters
  /// `dsp.plan_cache.hit` / `dsp.plan_cache.miss`). Steady state is
  /// all hits: a sweep that keeps missing is rebuilding plans.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// The process-wide cache the dsp shims and modem hot paths share.
  static PlanCache& Shared();

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::shared_ptr<const FftPlan>> plans_;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace wearlock::dsp
