#include "dsp/fft_plan.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/instrument.h"

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!IsPowerOfTwo(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two, got " +
                                std::to_string(n));
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swap_a_.push_back(static_cast<std::uint32_t>(i));
      swap_b_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  // The tables replay the legacy transform's twiddle recurrence exactly
  // (w starts at 1 and accumulates `w *= wlen` per butterfly, restarting
  // each stage), so the rounded table values - and therefore Execute()'s
  // outputs - are bit-identical to computing them inline.
  for (int dir = 0; dir < 2; ++dir) {
    ComplexVec& tw = dir == 0 ? fwd_ : inv_;
    if (n > 1) tw.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang =
          2.0 * kPi / static_cast<double>(len) * (dir == 0 ? -1.0 : 1.0);
      const Complex wlen(std::cos(ang), std::sin(ang));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(w);
        w *= wlen;
      }
    }
  }
}

// lint: hot-path
void FftPlan::Execute(Complex* data, bool inverse) const {
  // std::complex<double> is layout-compatible with double[2], so the
  // butterflies run on raw doubles: same finite-value arithmetic as the
  // std::complex operators, but the compiler keeps everything in
  // registers instead of spilling temporaries.
  double* x = reinterpret_cast<double*>(data);
  for (std::size_t s = 0; s < swap_a_.size(); ++s) {
    const std::size_t a = swap_a_[s];
    const std::size_t b = swap_b_[s];
    std::swap(x[2 * a], x[2 * b]);
    std::swap(x[2 * a + 1], x[2 * b + 1]);
  }
  const double* tw =
      reinterpret_cast<const double*>((inverse ? inv_ : fwd_).data());
  std::size_t toff = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      double* lo = x + 2 * i;
      double* hi = x + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[2 * (toff + k)];
        const double wi = tw[2 * (toff + k) + 1];
        const double ur = lo[2 * k], ui = lo[2 * k + 1];
        const double xr = hi[2 * k], xi = hi[2 * k + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
    toff += half;
  }
}

void FftPlan::Inverse(Complex* data) const {
  Execute(data, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  double* x = reinterpret_cast<double*>(data);
  for (std::size_t i = 0; i < 2 * n_; ++i) x[i] *= inv_n;
}

std::shared_ptr<const FftPlan> PlanCache::Get(std::size_t n) {
  // Find or build under one lock, so each size is built (and counted as
  // a miss) exactly once. Plans are only built during warm-up, so the
  // O(n log n) construction never blocks a steady-state lookup.
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(n);
  if (it != plans_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    WL_COUNT("dsp.plan_cache.hit");
    return it->second;
  }
  auto plan = std::make_shared<const FftPlan>(n);
  plans_.emplace(n, plan);
  misses_.fetch_add(1, std::memory_order_relaxed);
  WL_COUNT("dsp.plan_cache.miss");
  return plan;
}

PlanCache& PlanCache::Shared() {
  // Leaked on purpose: plans may still be executed from atexit-time code
  // and the cache must outlive every worker thread (same reasoning as
  // obs::MetricsRegistry::Default).
  static PlanCache* const cache = new PlanCache();  // NOLINT(banned-api): intentional leak
  return *cache;
}

}  // namespace wearlock::dsp
