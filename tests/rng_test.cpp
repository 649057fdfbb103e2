// sim::Mt19937_64 and sim::Rng's normal draws, pinned to today's bits:
// the C++ standard's check value for MT19937-64, a hexfloat known answer
// for the block Gaussian fill, and (with libstdc++, whose engine and
// normal_distribution the simulation's goldens were recorded with) word
// and draw equality against the std:: oracles, including how many engine
// words each fill consumes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/rng.h"

namespace wearlock::sim {
namespace {

::testing::AssertionResult SameBits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " vs " << b;
}

TEST(Mt19937_64, TenThousandthOutputIsTheStandardCheckValue) {
  // C++ [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Rng, GaussianVectorKnownAnswer) {
  // Hexfloats, so the pin is exact and independent of the standard
  // library's distributions.
  static constexpr double kExpected[] = {
      -0x1.5d2b8fb257ccbp-1, 0x1.8e6841b508a67p-1, -0x1.6b3ed0aee9194p-1,
      0x1.6cd78ab1601bp-2,   0x1.99ca752c259b4p-2, 0x1.ddb145582adfcp-1,
      -0x1.5093555c51125p-1, 0x1.634b26ba2eb8cp+0,
  };
  Rng rng(20261018);
  const std::vector<double> v = rng.GaussianVector(8, 1.0);
  ASSERT_EQ(v.size(), 8u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_TRUE(SameBits(v[i], kExpected[i])) << "draw " << i;
  }
}

TEST(Rng, SkipGaussiansConsumesWhatGaussianVectorWould) {
  // The reference is the fill itself. Each lead offset (0..311 engine
  // words drawn first) puts the state refill at a different position of
  // the walk, so blocks end mid-walk, exactly at it, and with one word
  // left (the straddling pair); odd n drop a pair's second value.
  for (const std::size_t n : {0u, 1u, 2u, 3u, 155u, 156u, 157u, 311u, 312u,
                              313u, 8192u, 10001u}) {
    for (std::size_t lead = 0; lead < Mt19937_64::kStateSize; ++lead) {
      const std::uint64_t seed = 77 + n * 1000 + lead;
      Rng skipped(seed);
      Rng drawn(seed);
      for (std::size_t i = 0; i < lead; ++i) {
        ASSERT_EQ(skipped.UniformInt(0, ~std::uint64_t{0}),
                  drawn.UniformInt(0, ~std::uint64_t{0}));
      }
      skipped.SkipGaussians(n);
      (void)drawn.GaussianVector(n);
      const std::vector<double> after_skip = skipped.GaussianVector(1000);
      const std::vector<double> after_fill = drawn.GaussianVector(1000);
      for (std::size_t i = 0; i < after_fill.size(); ++i) {
        ASSERT_TRUE(SameBits(after_skip[i], after_fill[i]))
            << "n=" << n << " lead=" << lead << " draw " << i;
      }
    }
  }
}

#if defined(__GLIBCXX__)

// A raw engine word through Rng: a full-range uniform_int_distribution
// returns the engine's next word unchanged.
std::uint64_t NextWord(Rng& rng) { return rng.UniformInt(0, ~std::uint64_t{0}); }

TEST(Mt19937_64, MatchesStdMt19937_64) {
  for (const std::uint64_t seed : {1ULL, 5489ULL, 0x9E3779B97F4A7C15ULL}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += engine() != oracle();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Rng, GaussianVectorMatchesOneStdNormalDistribution) {
  // Block edges: a fill that ends inside, at, and just past the 312-word
  // state, with an odd n dropping its last pair's second value, and a
  // few words consumed first so pairs also straddle a refill.
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 155u, 156u, 311u, 312u, 313u, 10007u}) {
    for (const std::size_t lead : {0u, 1u, 5u}) {
      const std::uint64_t seed = 1000 + n * 7 + lead;
      const double stddev = 0.37;
      Rng rng(seed);
      std::mt19937_64 oracle(seed);
      for (std::size_t i = 0; i < lead; ++i) {
        ASSERT_EQ(NextWord(rng), oracle());
      }
      const std::vector<double> v = rng.GaussianVector(n, stddev);
      std::normal_distribution<double> dist(0.0, stddev);
      ASSERT_EQ(v.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(SameBits(v[i], dist(oracle)))
            << "n=" << n << " lead=" << lead << " draw " << i;
      }
      // Same consumption: the next engine word agrees too.
      EXPECT_EQ(NextWord(rng), oracle()) << "n=" << n << " lead=" << lead;
    }
  }
}

TEST(Rng, GaussianMatchesAFreshStdNormalDistributionPerCall) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 100'000; ++i) {
      const double stddev = i % 3 == 0 ? 1.0 : 0.002;
      const double got = rng.Gaussian(stddev);
      ASSERT_TRUE(
          SameBits(got, std::normal_distribution<double>(0.0, stddev)(oracle)))
          << "seed " << seed << " call " << i;
    }
    EXPECT_EQ(NextWord(rng), oracle());
  }
}

TEST(Rng, StdDistributionsOverTheEngineMatchStdMt19937_64) {
  Rng rng(21);
  std::mt19937_64 oracle(21);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(SameBits(rng.Uniform(-1.0, 3.0),
                         std::uniform_real_distribution<double>(-1.0, 3.0)(
                             oracle)));
    ASSERT_EQ(rng.UniformInt(2, 9),
              std::uniform_int_distribution<std::uint64_t>(2, 9)(oracle));
    ASSERT_EQ(rng.Chance(0.3), std::bernoulli_distribution(0.3)(oracle));
  }
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace wearlock::sim
