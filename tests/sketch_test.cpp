// Determinism and accuracy contract of the fleet-telemetry aggregates
// (obs/sketch.h): ExactSum must be order- and shard-invariant at the
// bit level, Sketch merges must commute byte-identically, and quantile
// estimates must honour the relative-error bound against an exact
// sample quantile. These are the properties the fleet-campaign gates
// (fleet_determinism_test, telemetry_golden_replay, tools/ci.sh) build
// on.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/sketch.h"
#include "sketch_fields.h"

namespace wearlock::obs {
namespace {

using testing::SketchCount;
using testing::SketchField;

std::string JsonOf(const Sketch& sketch) {
  std::ostringstream os;
  sketch.WriteJson(os);
  return os.str();
}

/// A mixed-magnitude sample set that defeats naive summation: huge
/// values that cancel, subnormals, and ordinary latencies.
std::vector<double> AdversarialValues() {
  return {1e308,
          -1e308,
          1.0,
          -1.0,
          5e-324,                                    // smallest subnormal
          -5e-324,
          std::numeric_limits<double>::denorm_min(),
          1e-300,
          3.14159,
          -2.71828,
          1e17,
          -1e17,
          0.1,
          0.2,
          0.3};
}

/// Deterministic pseudo-latency samples (log-normal-ish spread).
std::vector<double> LatencySamples(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::lognormal_distribution<double> dist(6.0, 0.8);  // ~400 ms median
  std::vector<double> out(n);
  for (double& v : out) v = dist(rng);
  return out;
}

TEST(ExactSumTest, OrderOfAdditionNeverChangesTheState) {
  std::vector<double> values = AdversarialValues();
  ExactSum forward;
  for (double v : values) forward.Add(v);

  std::vector<double> reversed(values.rbegin(), values.rend());
  ExactSum backward;
  for (double v : reversed) backward.Add(v);

  std::mt19937 rng(7);
  std::shuffle(values.begin(), values.end(), rng);
  ExactSum shuffled;
  for (double v : values) shuffled.Add(v);

  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, shuffled);
  EXPECT_EQ(forward.Value(), backward.Value());
  EXPECT_EQ(forward.Value(), shuffled.Value());
}

TEST(ExactSumTest, CancellationIsExact) {
  // 1e308 + 1.0 - 1e308 == 1.0 exactly; naive double summation loses
  // the 1.0 entirely. This is the shard-count variance root cause the
  // superaccumulator exists to kill.
  ExactSum sum;
  sum.Add(1e308);
  sum.Add(1.0);
  sum.Add(-1e308);
  EXPECT_EQ(sum.Value(), 1.0);
}

TEST(ExactSumTest, ShardPartitionAndMergeOrderAreInvariant) {
  const std::vector<double> values = LatencySamples(10000, 11);
  ExactSum whole;
  for (double v : values) whole.Add(v);

  for (const std::size_t shards : {2u, 8u}) {
    std::vector<ExactSum> parts(shards);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % shards].Add(values[i]);
    }
    // Merge left-to-right...
    ExactSum ltr;
    for (const ExactSum& part : parts) ltr.Merge(part);
    // ...and right-to-left.
    ExactSum rtl;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) rtl.Merge(*it);
    EXPECT_EQ(whole, ltr) << shards << " shards (left-to-right)";
    EXPECT_EQ(whole, rtl) << shards << " shards (right-to-left)";
  }
}

TEST(ExactSumTest, NonFinitePoisoningMatchesIeee) {
  ExactSum nan_sum;
  nan_sum.Add(1.0);
  nan_sum.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nan_sum.Value()));

  ExactSum inf_sum;
  inf_sum.Add(std::numeric_limits<double>::infinity());
  inf_sum.Add(5.0);
  EXPECT_EQ(inf_sum.Value(), std::numeric_limits<double>::infinity());

  ExactSum conflict;
  conflict.Add(std::numeric_limits<double>::infinity());
  conflict.Add(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(conflict.Value()));
}

TEST(SketchTest, MergeCommutesByteIdentically) {
  Sketch a, b;
  for (double v : LatencySamples(5000, 21)) a.Observe(v);
  for (double v : LatencySamples(5000, 22)) b.Observe(v);
  b.Observe(0.0);      // zero bucket
  b.Observe(-42.5);    // negative mirror buckets

  Sketch ab = a;
  ab.Merge(b);
  Sketch ba = b;
  ba.Merge(a);
  EXPECT_EQ(JsonOf(ab), JsonOf(ba));
  EXPECT_EQ(SketchCount(ab), 10002u);
}

TEST(SketchTest, ShardCountNeverChangesTheSerializedBytes) {
  const std::vector<double> values = LatencySamples(20000, 31);
  Sketch whole;
  for (double v : values) whole.Observe(v);
  const std::string expected = JsonOf(whole);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    std::vector<Sketch> parts(shards);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % shards].Observe(values[i]);
    }
    Sketch merged;
    for (const Sketch& part : parts) merged.Merge(part);
    EXPECT_EQ(JsonOf(merged), expected) << shards << " shards";
  }
}

TEST(SketchTest, QuantilesHonourTheRelativeErrorBound) {
  std::vector<double> values = LatencySamples(100000, 41);
  Sketch sketch;
  for (double v : values) sketch.Observe(v);
  std::sort(values.begin(), values.end());

  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    const double exact = values[rank];
    const double estimate = sketch.Quantile(q);
    // One bucket boundary of slack on top of alpha: the exact order
    // statistic may sit at the far edge of the estimate's bucket.
    const double bound = 2.0 * Sketch::kAccuracy * exact;
    EXPECT_NEAR(estimate, exact, bound)
        << "q=" << q << " exact=" << exact << " est=" << estimate;
  }
  // The extremes return a bucket representative clamped to [min, max],
  // so they obey the same relative bound rather than exact equality.
  EXPECT_NEAR(sketch.Quantile(0.0), values.front(),
              2.0 * Sketch::kAccuracy * values.front());
  EXPECT_NEAR(sketch.Quantile(1.0), values.back(),
              2.0 * Sketch::kAccuracy * values.back());
}

TEST(SketchTest, ExactFieldsAreExact) {
  Sketch sketch;
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  for (double v : values) sketch.Observe(v);
  EXPECT_EQ(SketchCount(sketch), values.size());
  EXPECT_EQ(SketchField(sketch, "min"), 1.0);
  EXPECT_EQ(SketchField(sketch, "max"), 9.0);
  EXPECT_EQ(SketchField(sketch, "sum"), 31.0);  // exact: ExactSum
}

TEST(SketchTest, JsonRoundTripIsByteStable) {
  Sketch sketch;
  for (double v : LatencySamples(2000, 51)) sketch.Observe(v);
  sketch.Observe(0.0);
  sketch.Observe(-17.25);
  const std::string first = JsonOf(sketch);

  std::string error;
  const auto parsed = JsonParse(first, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto rebuilt = Sketch::FromJson(*parsed, &error);
  ASSERT_TRUE(rebuilt.has_value()) << error;
  EXPECT_EQ(JsonOf(*rebuilt), first);
}

TEST(SketchTest, FromJsonRejectsAnotherAccuracy) {
  // Every sketch has kAccuracy, so any two merge; a serialized sketch
  // claiming another accuracy has buckets that would not align.
  std::string error;
  const auto parsed =
      JsonParse(R"({"a":0.05,"count":0,"zero":0,"pos":[],"neg":[]})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(Sketch::FromJson(*parsed, &error).has_value());
  EXPECT_NE(error.find("relative accuracy"), std::string::npos) << error;
}

TEST(SketchTest, EmptySketchEdgeCases) {
  const Sketch empty;
  EXPECT_EQ(SketchCount(empty), 0u);
  EXPECT_TRUE(std::isnan(empty.Quantile(0.5)));
}

}  // namespace
}  // namespace wearlock::obs
