// Mergeable, deterministic fleet-telemetry aggregates.
//
// A sharded Monte Carlo campaign (sim::ParallelExecutor fanning
// sessions across threads, or separate processes writing JSONL) needs
// per-shard statistics that fold into one fleet-wide result
// *bit-identically regardless of shard count or merge order*. Two
// primitives deliver that:
//
//   * ExactSum - an order-insensitive exact accumulator for doubles
//     (a Kulisch-style fixed-point superaccumulator). Floating-point
//     addition is commutative but not associative, so naive per-shard
//     sums differ when the shard split changes; ExactSum represents
//     the running sum as a wide fixed-point integer, making Add and
//     Merge exact, commutative AND associative. The rounded double
//     comes out only at read time.
//
//   * Sketch - a DDSketch-style quantile sketch over fixed
//     log-spaced bucket boundaries (one relative accuracy and no bucket
//     collapsing, so any two sketches' buckets align), with
//     exact min/max/count and an ExactSum total. Quantile estimates
//     carry a bounded relative error; Merge is exact on every stored
//     field, so any shard partition of the same observation multiset
//     serializes to byte-identical JSON.
//
// Both types are value types with an internal mutex on Sketch (the
// registry hands references to concurrently observing sessions, like
// obs::Series). See docs/observability.md, "Fleet telemetry".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "obs/json.h"

namespace wearlock::obs {

/// Order-insensitive exact accumulator for IEEE-754 doubles. The sum
/// is held as value * 2^1074 in a 2304-bit two's-complement integer:
/// wide enough for every finite double (magnitude bit 2097 at
/// DBL_MAX) plus >2^190 additions of headroom, so Add never loses a
/// bit and Merge is plain big-integer addition. Not thread-safe.
class ExactSum {
 public:
  /// Accumulate one value exactly. Non-finite inputs are tallied
  /// separately and poison Value() the way IEEE addition would
  /// (inf + -inf or any NaN => NaN).
  void Add(double v);

  /// Fold another accumulator in. Exact, commutative, associative:
  /// any merge tree over the same multiset of Add() calls yields
  /// bit-identical state.
  void Merge(const ExactSum& other);

  /// The correctly rounded (nearest-even) double of the exact sum.
  double Value() const;

  bool operator==(const ExactSum& other) const = default;

 private:
  static constexpr std::size_t kLimbs = 36;  // 36 * 64 = 2304 bits

  void AddMagnitudeAt(std::size_t bit, std::uint64_t mantissa);
  void SubMagnitudeAt(std::size_t bit, std::uint64_t mantissa);

  std::array<std::uint64_t, kLimbs> limbs_{};
  std::uint64_t nan_count_ = 0;
  std::uint64_t pos_inf_count_ = 0;
  std::uint64_t neg_inf_count_ = 0;
};

/// Mergeable quantile sketch: log-spaced buckets with fixed boundaries
/// derived from the relative accuracy alpha = kAccuracy (bucket key
/// ceil(log_gamma |v|), gamma = (1+alpha)/(1-alpha)), an exact zero
/// bucket (|v| below kMinTrackable counts as zero), mirrored negative
/// buckets, exact min/max/count and an ExactSum total (WriteJson
/// carries them).
///
/// Quantile(q) returns a bucket representative within relative error
/// ~alpha of the true order statistic for |v| >= kMinTrackable.
/// Observe/readers are mutex-guarded so a registry-owned sketch can be
/// observed from hot paths like a Series; Merge locks both operands.
class Sketch {
 public:
  /// Relative accuracy of every sketch: 1% - p99 latency estimates land
  /// within 1% of the exact sample percentile. One value for all
  /// sketches keeps every pair mergeable.
  static constexpr double kAccuracy = 0.01;
  /// Magnitudes below this collapse into the zero bucket (bounds the
  /// key range; nothing the pipeline measures is smaller).
  static constexpr double kMinTrackable = 1e-12;

  Sketch() = default;
  Sketch(const Sketch& other);
  Sketch& operator=(const Sketch& other);

  void Observe(double v);

  /// Fold `other` in. Exact on every stored field, so merge order and
  /// shard partition never change the result.
  void Merge(const Sketch& other);

  /// Bucket-representative estimate of the q-quantile (0 <= q <= 1),
  /// clamped to [min, max]. NaN when the sketch is empty.
  double Quantile(double q) const;

  /// One JSON object: {"a":...,"count":...,"zero":...,"sum":...,
  /// "min":...,"max":...,"pos":[[key,count],...],"neg":[...]}.
  /// Deterministic: ascending key order, round-tripping numbers.
  void WriteJson(std::ostream& os) const;

  /// Rebuild from WriteJson output. The sum is re-seeded from the
  /// serialized (rounded) double, so write->read->write is
  /// byte-stable; merging *after* a round trip folds per-file rounded
  /// sums exactly instead of the original samples. A sketch whose "a"
  /// is not kAccuracy is rejected (its buckets would not align).
  static std::optional<Sketch> FromJson(const JsonValue& v,
                                        std::string* error = nullptr);

 private:
  double QuantileLocked(double q) const;

  mutable std::mutex mu_;
  std::map<std::int32_t, std::uint64_t> positive_;
  std::map<std::int32_t, std::uint64_t> negative_;  // keyed on magnitude
  std::uint64_t zero_ = 0;
  std::uint64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  ExactSum sum_;
};

}  // namespace wearlock::obs
