// Sensor substrate tests: magnitude/normalization, DTW properties,
// motion simulation structure, Algorithm 1 filter decisions.
#include <gtest/gtest.h>

#include <cmath>

#include "sensors/dtw.h"
#include "sensors/filter.h"
#include "sensors/motion_sim.h"
#include "sensors/trace.h"
#include "sim/rng.h"

namespace wearlock::sensors {
namespace {

// ----------------------------------------------------------------- trace
TEST(Trace, MagnitudeIsEuclidean) {
  AccelTrace t = {{3.0, 4.0, 0.0}, {1.0, 2.0, 2.0}};
  const auto m = Magnitude(t);
  EXPECT_NEAR(m[0], 5.0, 1e-12);
  EXPECT_NEAR(m[1], 3.0, 1e-12);
}

TEST(Trace, NormalizedHasZeroMeanUnitVariance) {
  sim::Rng rng(41);
  std::vector<double> xs(200);
  for (auto& v : xs) v = 5.0 + 2.0 * rng.Gaussian();
  const auto n = Normalized(xs);
  double mean = 0.0, var = 0.0;
  for (double v : n) mean += v;
  mean /= static_cast<double>(n.size());
  for (double v : n) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n.size());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(Trace, ConstantTraceNormalizesToZeros) {
  const auto n = Normalized(std::vector<double>(50, 9.81));
  for (double v : n) EXPECT_EQ(v, 0.0);
}

TEST(Trace, SmoothReducesVariance) {
  sim::Rng rng(42);
  std::vector<double> xs(500);
  for (auto& v : xs) v = rng.Gaussian();
  const auto s = Smooth(xs, 5);
  ASSERT_EQ(s.size(), xs.size());
  double var_x = 0.0, var_s = 0.0;
  for (double v : xs) var_x += v * v;
  for (double v : s) var_s += v * v;
  EXPECT_LT(var_s, 0.5 * var_x);
  // Identity for window <= 1.
  EXPECT_EQ(Smooth(xs, 1), xs);
}

// ------------------------------------------------------------------- dtw
TEST(Dtw, IdenticalSequencesScoreZero) {
  const std::vector<double> a = {0.1, 0.5, -0.3, 0.8};
  const auto r = Dtw(a, a);
  EXPECT_NEAR(r.distance, 0.0, 1e-12);
  EXPECT_NEAR(r.normalized, 0.0, 1e-12);
}

TEST(Dtw, HandlesTimeShift) {
  // A shifted copy should score near zero thanks to warping.
  std::vector<double> a(60), b(60);
  for (int i = 0; i < 60; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(0.3 * i);
    b[static_cast<std::size_t>(i)] = std::sin(0.3 * (i - 3));
  }
  EXPECT_LT(Dtw(a, b).normalized, 0.05);
  // Straight per-sample distance would be much larger.
  double direct = 0.0;
  for (int i = 0; i < 60; ++i) {
    direct += std::abs(a[static_cast<std::size_t>(i)] -
                       b[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(direct / 60.0, 0.2);
}

TEST(Dtw, SymmetricAndNonNegative) {
  sim::Rng rng(43);
  std::vector<double> a(40), b(50);
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  const auto ab = Dtw(a, b);
  const auto ba = Dtw(b, a);
  EXPECT_NEAR(ab.distance, ba.distance, 1e-9);
  EXPECT_GE(ab.distance, 0.0);
}

TEST(Dtw, DifferentLengthsSupported) {
  std::vector<double> a(100, 0.5), b(60, 0.5);
  EXPECT_NEAR(Dtw(a, b).normalized, 0.0, 1e-12);
}

TEST(Dtw, WindowConstraintMatchesUnconstrainedWhenWide) {
  sim::Rng rng(44);
  std::vector<double> a(50), b(50);
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  const auto full = Dtw(a, b);
  DtwOptions options;
  options.window = 50;
  const auto banded = Dtw(a, b, options);
  EXPECT_NEAR(full.distance, banded.distance, 1e-9);
}

TEST(Dtw, NarrowWindowIncreasesCost) {
  std::vector<double> a(60), b(60);
  for (int i = 0; i < 60; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(0.3 * i);
    b[static_cast<std::size_t>(i)] = std::sin(0.3 * (i - 8));
  }
  DtwOptions narrow;
  narrow.window = 2;  // cannot warp far enough to absorb the shift
  EXPECT_GT(Dtw(a, b, narrow).normalized, Dtw(a, b).normalized);
}

TEST(Dtw, Validation) {
  EXPECT_THROW(Dtw({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Dtw({1.0}, {}), std::invalid_argument);
  DtwOptions options;
  options.window = 1;
  EXPECT_THROW(Dtw(std::vector<double>(10, 0.0), std::vector<double>(50, 0.0),
                   options),
               std::invalid_argument);
}

// ------------------------------------------------------------ motion sim
TEST(MotionSim, CoLocatedPairsScoreLow) {
  MotionSimulator sim(sim::Rng(45));
  for (Activity a : {Activity::kSitting, Activity::kWalking}) {
    const auto pair = sim.CoLocatedPair(a, 100);
    EXPECT_LT(
        Dtw(Preprocess(pair.phone), Preprocess(pair.watch)).normalized, 0.12)
        << ToString(a);
  }
}

TEST(MotionSim, IndependentPairsScoreHigh) {
  MotionSimulator sim(sim::Rng(46));
  double acc = 0.0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const auto pair =
        sim.IndependentPair(Activity::kWalking, Activity::kSitting, 100);
    acc += Dtw(Preprocess(pair.phone), Preprocess(pair.watch)).normalized;
  }
  EXPECT_GT(acc / n, 0.25);
}

TEST(MotionSim, TraceLengthAndGravity) {
  MotionSimulator sim(sim::Rng(47));
  const auto trace = sim.Single(Activity::kSitting, 80);
  ASSERT_EQ(trace.size(), 80u);
  // Sitting magnitude hovers near gravity.
  const auto mag = Magnitude(trace);
  for (double v : mag) {
    EXPECT_GT(v, 7.0);
    EXPECT_LT(v, 13.0);
  }
}

TEST(MotionSim, WalkingHasPeriodicStructure) {
  MotionSimulator sim(sim::Rng(48));
  const auto pair = sim.CoLocatedPair(Activity::kWalking, 150);
  const auto mag = Normalized(Magnitude(pair.phone));
  // Autocorrelation at the stride lag (~50/1.9 = 26 samples) is strong.
  double best = 0.0;
  for (std::size_t lag = 20; lag <= 32; ++lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < mag.size(); ++i) {
      acc += mag[i] * mag[i + lag];
    }
    best = std::max(best, acc / static_cast<double>(mag.size() - lag));
  }
  EXPECT_GT(best, 0.3);
}

// ---------------------------------------------------------------- filter
TEST(Filter, DecisionsFollowThresholds) {
  MotionSimulator sim(sim::Rng(49));
  // Same body, sitting: strong co-location evidence.
  const auto same = sim.CoLocatedPair(Activity::kSitting, 100);
  const auto r1 = SensorBasedFilter(same.phone, same.watch);
  EXPECT_NE(r1.decision, FilterDecision::kAbort);

  // Different bodies: abort.
  const auto diff =
      sim.IndependentPair(Activity::kWalking, Activity::kRunning, 100);
  const auto r2 = SensorBasedFilter(diff.phone, diff.watch);
  EXPECT_EQ(r2.decision, FilterDecision::kAbort);
  EXPECT_GT(r2.score, r1.score);
}

TEST(Filter, ThresholdBoundariesRespected) {
  MotionSimulator sim(sim::Rng(50));
  const auto pair = sim.CoLocatedPair(Activity::kWalking, 100);
  // Force extreme thresholds to pin each decision branch.
  FilterThresholds always_skip{.d_low = 10.0, .d_high = 20.0};
  EXPECT_EQ(SensorBasedFilter(pair.phone, pair.watch, always_skip).decision,
            FilterDecision::kSkipSecondPhase);
  FilterThresholds always_abort{.d_low = -2.0, .d_high = -1.0};
  EXPECT_EQ(SensorBasedFilter(pair.phone, pair.watch, always_abort).decision,
            FilterDecision::kAbort);
  FilterThresholds always_continue{.d_low = -1.0, .d_high = 10.0};
  EXPECT_EQ(SensorBasedFilter(pair.phone, pair.watch, always_continue).decision,
            FilterDecision::kContinue);
}

TEST(Filter, Validation) {
  const AccelTrace t(10);
  EXPECT_THROW(SensorBasedFilter({}, t), std::invalid_argument);
  EXPECT_THROW(SensorBasedFilter(t, {}), std::invalid_argument);
  FilterThresholds bad{.d_low = 0.5, .d_high = 0.1};
  EXPECT_THROW(SensorBasedFilter(t, t, bad), std::invalid_argument);
}

}  // namespace
}  // namespace wearlock::sensors
