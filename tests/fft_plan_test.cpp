// dsp::FftPlan / dsp::PlanCache: agreement with a direct O(n^2) DFT,
// bit-identity of cached and fresh plans, cache counter behavior, and
// concurrent Get() (a TSan target; ci.sh runs this binary under
// ThreadSanitizer with WEARLOCK_THREADS=8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
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

}  // namespace
}  // namespace wearlock::dsp
