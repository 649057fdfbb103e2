// dsp::FftPlan / dsp::PlanCache / dsp::TwiddleTables: agreement with a
// direct O(n^2) DFT, bit-identity of the split-layout kernel with the
// interleaved scalar loop it replaced (kept here as the reference), the
// shared stage twiddle tables, cache counter behavior, and concurrent
// Get() and first builds (TSan targets; ci.sh runs this binary under
// ThreadSanitizer with WEARLOCK_THREADS=8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <thread>
#include <vector>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/workspace.h"
#include "sim/rng.h"

namespace wearlock::dsp {
namespace {

ComplexVec RandomSignal(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  ComplexVec x(n);
  for (auto& c : x) c = Complex(rng.Gaussian(), rng.Gaussian());
  return x;
}

// max_k |planned[k] - X[k]| / max_k |X[k]|, where X is the textbook
// transform of x, sum_j x[j] e^(-+2 pi i jk/n) (over n for the inverse),
// computed directly in O(n^2) from a table of the n twiddles.
double RelativeErrorVsDft(const ComplexVec& x, const ComplexVec& planned,
                          bool inverse) {
  const std::size_t n = x.size();
  const double step = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                      static_cast<double>(n);
  ComplexVec w(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = std::polar(1.0, step * static_cast<double>(m));
  }
  double err = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex want(0.0, 0.0);
    // jk mod n; n is a power of two.
    for (std::size_t j = 0; j < n; ++j) want += x[j] * w[(j * k) & (n - 1)];
    if (inverse) want /= static_cast<double>(n);
    err = std::max(err, std::abs(planned[k] - want));
    scale = std::max(scale, std::abs(want));
  }
  return err / scale;
}

// The worst error measured over these sizes is about 5e-14 (n = 8192,
// where the plan's twiddle recurrence has accumulated most rounding); a
// wrong butterfly or twiddle gives errors of order 1.
constexpr double kDftTolerance = 1e-12;

class PlanVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanVsDft, ForwardAndInverseMatchDirectDft) {
  const std::size_t n = GetParam();
  const ComplexVec x = RandomSignal(n, n);
  ComplexVec forward = x;
  FftPlan(n).Forward(forward.data());
  EXPECT_LE(RelativeErrorVsDft(x, forward, /*inverse=*/false), kDftTolerance);
  ComplexVec inverse = x;
  FftPlan(n).Inverse(inverse.data());
  EXPECT_LE(RelativeErrorVsDft(x, inverse, /*inverse=*/true), kDftTolerance);
}

TEST_P(PlanVsDft, CachedPlanMatchesFreshPlanBitForBit) {
  const std::size_t n = GetParam();
  const ComplexVec x = RandomSignal(n, n + 2);
  ComplexVec fresh = x;
  FftPlan(n).Forward(fresh.data());
  ComplexVec cached = x;
  PlanCache::Shared().Get(n)->Forward(cached.data());
  // Same tables, same order: compare the raw representation.
  EXPECT_EQ(std::memcmp(cached.data(), fresh.data(), n * sizeof(Complex)), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanVsDft,
                         ::testing::Values(8, 16, 64, 256, 1024, 4096, 8192),
                         [](const auto& info) {
                           // Piecewise: dodges GCC 12 -Wrestrict at -O3.
                           std::string name(1, 'n');
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(FftPlan, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(96), std::invalid_argument);
  EXPECT_THROW(PlanCache::Shared().Get(6), std::invalid_argument);
}

TEST(PlanCache, SecondLookupIsAHitOnTheSamePlan) {
  // A private cache so the shared singleton's lifetime counters (used by
  // the bench zero-allocation gates) are not perturbed.
  PlanCache cache;
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  const auto first = cache.Get(512);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  const auto second = cache.Get(512);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(first.get(), second.get());  // shared, not rebuilt
  cache.Get(1024);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, ConcurrentGetReturnsOneSharedPlanPerSize) {
  // 8 threads hammer the same sizes; every thread must see the same
  // immutable plan instance and TSan must stay quiet.
  PlanCache cache;
  constexpr std::size_t kThreads = 8;
  static constexpr std::size_t kSizes[] = {64, 256, 1024};
  std::vector<std::vector<const FftPlan*>> seen(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &seen, t] {
      for (int round = 0; round < 50; ++round) {
        for (const std::size_t n : kSizes) {
          const auto plan = cache.Get(n);
          // Execute through the shared tables to give TSan real reads.
          ComplexVec buf(n, Complex(1.0, -1.0));
          plan->Forward(buf.data());
          if (round == 0) seen[t].push_back(plan.get());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(cache.misses(), std::size_t{3});  // one build per size, ever
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * 50 * 3);
}

TEST(Workspace, SlotsGrowOnceThenHoldSteady) {
  Workspace ws;
  const std::uint64_t growths_before = Workspace::TotalGrowths();
  ComplexVec& big = ws.ComplexBuf(CSlot::kFftScratch, 1024);
  EXPECT_EQ(big.size(), 1024u);
  EXPECT_GT(Workspace::TotalGrowths(), growths_before);
  const std::size_t bytes_after_growth = ws.bytes();
  const std::uint64_t growths_after = Workspace::TotalGrowths();
  // Shrinking reuse and same-size reuse keep capacity: no new growth.
  EXPECT_EQ(ws.ComplexBuf(CSlot::kFftScratch, 256).size(), 256u);
  EXPECT_EQ(ws.ComplexBuf(CSlot::kFftScratch, 1024).size(), 1024u);
  EXPECT_EQ(Workspace::TotalGrowths(), growths_after);
  EXPECT_EQ(ws.bytes(), bytes_after_growth);
  ComplexVec& zeroed = ws.ComplexZeroed(CSlot::kFftScratch, 512);
  for (const Complex& c : zeroed) EXPECT_EQ(c, Complex(0.0, 0.0));
}

// The radix-2 decimation-in-time plan as it ran before the split-layout
// kernel: bit-reversal swap pairs, per-plan interleaved twiddle tables
// from the `w *= wlen` recurrence, an interleaved butterfly loop, and
// Inverse()'s 1/n as a separate pass. The kernel must match it bit for
// bit.
class ScalarReferencePlan {
 public:
  explicit ScalarReferencePlan(std::size_t n) : n_(n) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) swaps_.emplace_back(i, j);
    }
    for (int dir = 0; dir < 2; ++dir) {
      ComplexVec& tw = dir == 0 ? fwd_ : inv_;
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                           (dir == 0 ? -1.0 : 1.0);
        const Complex wlen(std::cos(ang), std::sin(ang));
        Complex w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
          tw.push_back(w);
          w *= wlen;
        }
      }
    }
  }

  void Execute(Complex* data, bool inverse) const {
    double* x = reinterpret_cast<double*>(data);
    for (const auto& [a, b] : swaps_) {
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

  void Inverse(Complex* data) const {
    Execute(data, /*inverse=*/true);
    const double inv_n = 1.0 / static_cast<double>(n_);
    double* x = reinterpret_cast<double*>(data);
    for (std::size_t i = 0; i < 2 * n_; ++i) x[i] *= inv_n;
  }

 private:
  std::size_t n_;
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;
  ComplexVec fwd_, inv_;
};

bool SameBits(std::span<const Complex> a, std::span<const Complex> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// Inputs that exercise the IEEE corners the kernel must reproduce:
// Gaussian values with runs of +0.0 and -0.0 (a zero's sign survives
// only when every operation matches), subnormals, and magnitudes near
// 1e290 (large, but far enough from the overflow threshold that sums of
// 2^16 of them stay finite).
std::vector<ComplexVec> CornerInputs(std::size_t n) {
  sim::Rng rng(n + 11);
  std::vector<ComplexVec> inputs;
  ComplexVec zeros = RandomSignal(n, n + 3);
  for (std::size_t i = 0; i < n; ++i) {
    if ((i / 3) % 4 == 1) zeros[i] = Complex(0.0, -0.0);
    if ((i / 5) % 3 == 2) zeros[i] = Complex(-0.0, zeros[i].imag());
    if (i % 7 == 0) zeros[i] = Complex(zeros[i].real(), -0.0);
  }
  inputs.push_back(zeros);
  inputs.push_back(ComplexVec(n, Complex(-0.0, -0.0)));
  ComplexVec tiny(n);
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (std::size_t i = 0; i < n; ++i) {
    tiny[i] = Complex(rng.Gaussian() * 1e-310,
                      i % 2 == 0 ? denorm * static_cast<double>(i % 9)
                                 : -denorm * 3.0);
  }
  inputs.push_back(tiny);
  ComplexVec large(n);
  for (std::size_t i = 0; i < n; ++i) {
    large[i] = Complex(rng.Gaussian() * 1e290, (i % 3 == 0 ? -0.0 : 1e289));
  }
  inputs.push_back(large);
  return inputs;
}

TEST(FftKernel, MatchesTheScalarLoopBitForBitAtEverySize) {
  for (std::size_t n = 1; n <= (std::size_t{1} << 16); n <<= 1) {
    const FftPlan plan(n);
    const ScalarReferencePlan reference(n);
    for (const ComplexVec& x : CornerInputs(n)) {
      for (const bool inverse : {false, true}) {
        ComplexVec got = x, want = x;
        plan.Execute(got.data(), inverse);
        reference.Execute(want.data(), inverse);
        EXPECT_TRUE(SameBits(got, want)) << "n=" << n << " inverse=" << inverse;
      }
      ComplexVec got = x, want = x;
      plan.Inverse(got.data());
      reference.Inverse(want.data());
      EXPECT_TRUE(SameBits(got, want)) << "n=" << n << " scaled inverse";
    }
  }
}

TEST(FftKernel, AlternatingSizesOnOneThreadKeepTheirBits) {
  // The kernel's split scratch is per thread and keeps its largest size;
  // a small transform after a large one must not read stale values.
  for (const std::size_t n : {16384u, 8u, 4096u, 2u, 16384u, 64u}) {
    const ComplexVec x = RandomSignal(n, n + 5);
    ComplexVec got = x, want = x;
    PlanCache::Shared().Get(n)->Forward(got.data());
    ScalarReferencePlan(n).Execute(want.data(), /*inverse=*/false);
    EXPECT_TRUE(SameBits(got, want)) << "n=" << n;
  }
}

// Stage `len`'s table straight from the recurrence, split layout.
std::vector<double> RecurrenceTable(std::size_t len, bool inverse) {
  const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                     (inverse ? 1.0 : -1.0);
  const Complex wlen(std::cos(ang), std::sin(ang));
  Complex w(1.0, 0.0);
  std::vector<double> table(len);
  for (std::size_t k = 0; k < len / 2; ++k) {
    table[k] = w.real();
    table[len / 2 + k] = w.imag();
    w *= wlen;
  }
  return table;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(TwiddleTables, PlansOfSizeNAndTwoNShareEachStageTable) {
  for (std::size_t n = 2; n <= 32768; n <<= 1) {
    const FftPlan small(n), big(2 * n);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      for (const bool inverse : {false, true}) {
        const std::span<const double> a = small.StageTwiddles(len, inverse);
        const std::span<const double> b = big.StageTwiddles(len, inverse);
        EXPECT_EQ(a.data(), b.data()) << "n=" << n << " len=" << len;
        EXPECT_EQ(a.data(),
                  TwiddleTables::Shared().Get(len, inverse).data());
        EXPECT_TRUE(SameBits(a, RecurrenceTable(len, inverse)))
            << "len=" << len << " inverse=" << inverse;
      }
    }
  }
  EXPECT_THROW(FftPlan(8).StageTwiddles(16, false), std::invalid_argument);
  EXPECT_THROW(FftPlan(8).StageTwiddles(3, false), std::invalid_argument);
  EXPECT_THROW(TwiddleTables::Shared().Get(1, false), std::invalid_argument);
}

TEST(TwiddleTables, ConcurrentFirstBuildsBuildEachStageOnce) {
  // 8 threads race to build every stage of a private store, each walking
  // the stages in its own order; all must see one immutable table per
  // stage, equal to the recurrence.
  TwiddleTables tables;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kStages = 16;  // len 2 .. 65536
  std::vector<std::vector<const double*>> seen(
      kThreads, std::vector<const double*>(2 * kStages));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tables, &seen, t] {
      for (std::size_t step = 0; step < kStages; ++step) {
        const std::size_t s = (step * 5 + t) % kStages;
        for (const bool inverse : {false, true}) {
          seen[t][2 * s + inverse] =
              tables.Get(std::size_t{2} << s, inverse).data();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  for (std::size_t s = 0; s < kStages; ++s) {
    for (const bool inverse : {false, true}) {
      const std::size_t len = std::size_t{2} << s;
      const std::span<const double> table = tables.Get(len, inverse);
      EXPECT_EQ(table.data(), seen[0][2 * s + inverse]);  // never rebuilt
      EXPECT_TRUE(SameBits(table, RecurrenceTable(len, inverse)));
    }
  }
}

TEST(TwiddleTables, ConcurrentPlanBuildsShareTheSharedStages) {
  // 8 threads build plans of a size no other test uses, so the shared
  // store's largest stage is first built under the race, and run them.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kN = std::size_t{1} << 17;
  const ComplexVec x = RandomSignal(kN, 17);
  std::vector<const double*> stage(kThreads);
  std::vector<int> same(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const FftPlan plan(kN);
      stage[t] = plan.StageTwiddles(kN, /*inverse=*/false).data();
      ComplexVec a = x, b = x;
      plan.Forward(a.data());
      PlanCache::Shared().Get(kN)->Forward(b.data());
      same[t] = SameBits(a, b);
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stage[t], stage[0]);
    EXPECT_TRUE(same[t]) << "thread " << t;
  }
}

}  // namespace
}  // namespace wearlock::dsp
