#include "dsp/fft_plan.h"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "dsp/simd.h"
#include "dsp/workspace.h"
#include "obs/instrument.h"

namespace wearlock::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// One radix-2 butterfly per lane, in the scalar loop's operations and
// order: v = x * w = (xr*wr - xi*wi, xr*wi + xi*wr), then x <- u - v
// and u <- u + v.
inline void Butterfly(F64x2& ur, F64x2& ui, F64x2& xr, F64x2& xi, F64x2 wr,
                      F64x2 wi) {
  const F64x2 vr = xr * wr - xi * wi;
  const F64x2 vi = xr * wi + xi * wr;
  xr = ur - vr;
  xi = ui - vi;
  ur = ur + vr;
  ui = ui + vi;
}

// Where a pass puts its results: back into the split arrays, or - for
// the last pass - interleaved into the caller's buffer, times 1/n when
// kScale (Inverse()'s normalization, the same multiply per element).
struct SplitSink {
  double* re;
  double* im;
  void Put(std::size_t idx, F64x2 r, F64x2 i) const {
    Store2(re + idx, r);
    Store2(im + idx, i);
  }
};

template <bool kScale>
struct InterleaveSink {
  double* x;
  F64x2 scale;
  void Put(std::size_t idx, F64x2 r, F64x2 i) const {
    F64x2 first = __builtin_shufflevector(r, i, 0, 2);
    F64x2 second = __builtin_shufflevector(r, i, 1, 3);
    if constexpr (kScale) {
      first *= scale;
      second *= scale;
    }
    Store2(x + 2 * idx, first);
    Store2(x + 2 * idx + 2, second);
  }
};

// Stage `len` (>= 4) over the split arrays: butterflies
// (i + k, i + k + len/2) with twiddle w_k, two k per step.
template <typename Sink>
void RunStage(const double* re, const double* im, std::size_t n,
              std::size_t len, const double* tw, const Sink& out) {
  const std::size_t h = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < h; k += 2) {
      const std::size_t a = i + k, b = a + h;
      F64x2 ar = Load2(re + a), ai = Load2(im + a);
      F64x2 br = Load2(re + b), bi = Load2(im + b);
      Butterfly(ar, ai, br, bi, Load2(tw + k), Load2(tw + h + k));
      out.Put(a, ar, ai);
      out.Put(b, br, bi);
    }
  }
}

// Stages `len` (>= 4) and 2 * len in one pass. Each 4-point group
// (a, b, c, d) = i + k + {0, h, len, len + h} goes through stage len's
// butterflies (a, b) and (c, d) with its w_k, then stage 2 * len's
// (a, c) with its w_k and (b, d) with its w_{k+h}, in registers: the
// same butterflies, on the same values, as two separate stages.
template <typename Sink>
void RunStagePair(const double* re, const double* im, std::size_t n,
                  std::size_t len, const double* tw1, const double* tw2,
                  const Sink& out) {
  const std::size_t h = len / 2;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    for (std::size_t k = 0; k < h; k += 2) {
      const std::size_t a = i + k, b = a + h, c = a + len, d = c + h;
      F64x2 ar = Load2(re + a), ai = Load2(im + a);
      F64x2 br = Load2(re + b), bi = Load2(im + b);
      F64x2 cr = Load2(re + c), ci = Load2(im + c);
      F64x2 dr = Load2(re + d), di = Load2(im + d);
      const F64x2 w1r = Load2(tw1 + k), w1i = Load2(tw1 + h + k);
      Butterfly(ar, ai, br, bi, w1r, w1i);
      Butterfly(cr, ci, dr, di, w1r, w1i);
      Butterfly(ar, ai, cr, ci, Load2(tw2 + k), Load2(tw2 + len + k));
      Butterfly(br, bi, dr, di, Load2(tw2 + k + h), Load2(tw2 + len + k + h));
      out.Put(a, ar, ai);
      out.Put(b, br, bi);
      out.Put(c, cr, ci);
      out.Put(d, dr, di);
    }
  }
}

// The last pass: the one or two stages left after `len` (stage index
// `s`), or none when n == 2, writing interleaved into `x`.
template <bool kScale>
void RunLastPass(const double* re, const double* im, std::size_t n,
                 std::size_t len, const double* const* tw, std::size_t s,
                 double* x) {
  const double inv_n = 1.0 / static_cast<double>(n);
  const InterleaveSink<kScale> out{x, F64x2{inv_n, inv_n}};
  if (2 * len == n) {
    RunStagePair(re, im, n, len, tw[s], tw[s + 1], out);
  } else if (len == n) {
    RunStage(re, im, n, len, tw[s], out);
  } else {
    for (std::size_t k = 0; k < n; k += 2) {
      out.Put(k, Load2(re + k), Load2(im + k));
    }
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!IsPowerOfTwo(n)) {
    throw std::invalid_argument("FftPlan: size must be a power of two, got " +
                                std::to_string(n));
  }
  // gather_[m] is the bit reversal of 2m; the counter j walks the bit
  // reversals of 0, 1, ..., n - 1.
  gather_.reserve(n / 2);
  for (std::size_t i = 0, j = 0; i < n; ++i) {
    if (i % 2 == 0) gather_.push_back(static_cast<std::uint32_t>(j));
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    fwd_.push_back(TwiddleTables::Shared().Get(len, /*inverse=*/false).data());
    inv_.push_back(TwiddleTables::Shared().Get(len, /*inverse=*/true).data());
  }
}

void FftPlan::Execute(Complex* data, bool inverse) const {
  SplitTransform(data, inverse, /*scale=*/false);
}

void FftPlan::Inverse(Complex* data) const {
  SplitTransform(data, /*inverse=*/true, /*scale=*/true);
}

std::span<const double> FftPlan::StageTwiddles(std::size_t len,
                                               bool inverse) const {
  if (len < 2 || len > n_ || !IsPowerOfTwo(len)) {
    throw std::invalid_argument("FftPlan: no stage of length " +
                                std::to_string(len));
  }
  const auto& stages = inverse ? inv_ : fwd_;
  return {stages[std::countr_zero(len) - 1], len};
}

// lint: hot-path
void FftPlan::SplitTransform(Complex* data, bool inverse, bool scale) const {
  double* x = reinterpret_cast<double*>(data);
  const std::size_t n = n_;
  if (n == 1) {
    if (scale) {
      const double inv_n = 1.0 / static_cast<double>(n);
      x[0] *= inv_n;
      x[1] *= inv_n;
    }
    return;
  }
  double* re =
      Workspace::PerThread().RealScratch(RSlot::kFftSplit, 2 * n).data();
  double* im = re + n;

  // 1. Gather in bit-reversed order, fused with the length-2 stage,
  // whose one twiddle is the recurrence's start value (1, 0) exactly.
  // Two butterflies per step: lanes m and m + 1, whose four outputs
  // land contiguously.
  const std::size_t half = n / 2;
  std::size_t m = 0;
  for (; m + 2 <= half; m += 2) {
    const double* p0 = x + 2 * std::size_t{gather_[m]};
    const double* p1 = x + 2 * std::size_t{gather_[m + 1]};
    const F64x2 u0 = Load2(p0), u1 = Load2(p1);
    const F64x2 v0 = Load2(p0 + 2 * half), v1 = Load2(p1 + 2 * half);
    const F64x2 ur = __builtin_shufflevector(u0, u1, 0, 2);
    const F64x2 ui = __builtin_shufflevector(u0, u1, 1, 3);
    const F64x2 xr = __builtin_shufflevector(v0, v1, 0, 2);
    const F64x2 xi = __builtin_shufflevector(v0, v1, 1, 3);
    const F64x2 vr = xr * 1.0 - xi * 0.0;
    const F64x2 vi = xr * 0.0 + xi * 1.0;
    const F64x2 lo_r = ur + vr, lo_i = ui + vi;
    const F64x2 hi_r = ur - vr, hi_i = ui - vi;
    Store2(re + 2 * m, __builtin_shufflevector(lo_r, hi_r, 0, 2));
    Store2(re + 2 * m + 2, __builtin_shufflevector(lo_r, hi_r, 1, 3));
    Store2(im + 2 * m, __builtin_shufflevector(lo_i, hi_i, 0, 2));
    Store2(im + 2 * m + 2, __builtin_shufflevector(lo_i, hi_i, 1, 3));
  }
  for (; m < half; ++m) {  // n == 2: one butterfly
    const double* p = x + 2 * std::size_t{gather_[m]};
    const double ur = p[0], ui = p[1];
    const double xr = p[2 * half], xi = p[2 * half + 1];
    const double vr = xr * 1.0 - xi * 0.0;
    const double vi = xr * 0.0 + xi * 1.0;
    re[2 * m] = ur + vr;
    im[2 * m] = ui + vi;
    re[2 * m + 1] = ur - vr;
    im[2 * m + 1] = ui - vi;
  }

  // 2. Stages 4, 8, ..., n, two per pass (an odd one out runs alone),
  // and 3. the last pass interleaves its results back into `data`.
  const double* const* tw = (inverse ? inv_ : fwd_).data();
  std::size_t len = 4, s = 1;  // tw[s] is stage 2^(s+1)
  for (; 4 * len <= n; len *= 4, s += 2) {
    RunStagePair(re, im, n, len, tw[s], tw[s + 1], SplitSink{re, im});
  }
  if (scale) {
    RunLastPass<true>(re, im, n, len, tw, s, x);
  } else {
    RunLastPass<false>(re, im, n, len, tw, s, x);
  }
}

std::span<const double> TwiddleTables::Get(std::size_t len, bool inverse) {
  if (len < 2 || !IsPowerOfTwo(len)) {
    throw std::invalid_argument(
        "TwiddleTables: stage length must be a power of two >= 2, got " +
        std::to_string(len));
  }
  // Find or build under one leaf lock, as PlanCache::Get does. The
  // tables replay the legacy transform's twiddle recurrence exactly (w
  // starts at 1 and accumulates `w *= wlen` per butterfly), so the
  // rounded values are bit-identical to computing them inline.
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<const Stage>& stage = stages_[std::countr_zero(len)];
  if (stage == nullptr) {
    auto built = std::make_unique<Stage>();
    for (int dir = 0; dir < 2; ++dir) {
      RealVec& tw = dir == 0 ? built->fwd : built->inv;
      tw.resize(len);
      const double ang =
          2.0 * kPi / static_cast<double>(len) * (dir == 0 ? -1.0 : 1.0);
      const Complex wlen(std::cos(ang), std::sin(ang));
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw[k] = w.real();
        tw[len / 2 + k] = w.imag();
        w *= wlen;
      }
    }
    stage = std::move(built);
  }
  return inverse ? stage->inv : stage->fwd;
}

TwiddleTables& TwiddleTables::Shared() {
  // Leaked on purpose, like PlanCache::Shared: plans point into the
  // tables and may run from atexit-time code.
  static TwiddleTables* const tables = new TwiddleTables();  // NOLINT(banned-api): intentional leak
  return *tables;
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
