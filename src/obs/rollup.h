// Cohort rollups over SessionRecords: the aggregation stage of the
// fleet telemetry pipeline (record.h -> rollup.h -> wearlock_telemetry
// CLI). A TelemetrySink groups records by a caller-defined cohort key,
// keeps exact outcome counts plus mergeable latency sketches per
// cohort, and serializes one deterministic rollup JSON document.
//
// Determinism contract: every per-cohort aggregate is
// order-insensitive (integer counts, Sketch, ExactSum), so the same
// multiset of records produces byte-identical WriteJson() output
// regardless of ingest order, shard count, or merge tree - the
// property the fleet-campaign ctest gate pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/record.h"
#include "obs/sketch.h"

namespace wearlock::obs {

/// Schema tag on every rollup document.
inline constexpr char kRollupSchema[] = "wearlock.rollup.v1";

/// Wilson score interval for a binomial proportion - the right CI for
/// the small counts and extreme rates unlock campaigns produce (a
/// normal approximation would report [1.0, 1.0] after 50/50 unlocks).
/// trials == 0 yields the vacuous {0, 0, 1}.
struct WilsonInterval {
  double rate = 0.0;  ///< point estimate successes/trials
  double low = 0.0;
  double high = 1.0;
};
WilsonInterval WilsonScore(std::uint64_t successes, std::uint64_t trials,
                           double z = 1.96);

/// The cohort key, the grammar docs/observability.md documents:
///   config=<label>;dist=<lo>-<hi>;env=<environment>;faults=<spec>
/// with ";attack=<spec>" appended only for attacked sessions, so
/// unattacked cohorts keep their historical keys.
/// Distances bin at 0.25 m ("0.25-0.50" covers [0.25, 0.50)); the
/// fault spec rides verbatim (it may contain commas, hence the
/// semicolon separators). Axes the key omits (activity, same_body)
/// still aggregate correctly - they just share a cohort.
std::string DefaultCohortKey(const SessionRecord& record);

/// Groups SessionRecords into cohorts (keyed by DefaultCohortKey) and
/// aggregates each one.
class TelemetrySink {
 public:
  /// Per-cohort aggregate. Sessions split by ground truth: genuine
  /// (same_body) attempts feed the unlock rate, impostor attempts the
  /// false-accept rate; the two CIs answer different questions and
  /// mixing them would poison both.
  struct Cohort {
    std::uint64_t sessions = 0;
    std::uint64_t genuine = 0;
    std::uint64_t impostor = 0;
    std::uint64_t genuine_unlocked = 0;
    std::uint64_t false_accepts = 0;
    std::map<std::string, std::uint64_t> outcomes;
    std::int64_t retries = 0;
    std::int64_t chase_decisions = 0;
    std::int64_t degrades = 0;
    std::int64_t fault_events = 0;
    /// Latency/channel sketches keyed by stage name: "total",
    /// "phase1_audio" .. "phase2_compute", "pilot_snr_db", "ebn0_db",
    /// "token_ber".
    std::map<std::string, Sketch> stages;

    WilsonInterval UnlockRate() const {
      return WilsonScore(genuine_unlocked, genuine);
    }
    WilsonInterval FalseAcceptRate() const {
      return WilsonScore(false_accepts, impostor);
    }

    /// Fold another cohort's aggregates in (exact, order-insensitive).
    void Merge(const Cohort& other);
  };

  void Ingest(const SessionRecord& record);

  /// Ingest JSONL text, one record per line (blank lines skipped).
  /// Returns the number ingested; on a malformed line, stops there and
  /// reports the line number + reason in *error.
  std::size_t IngestJsonl(const std::string& text,
                          std::string* error = nullptr);

  /// Fold another sink's cohorts in, matching by key.
  void Merge(const TelemetrySink& other);

  const std::map<std::string, Cohort>& cohorts() const { return cohorts_; }

  /// One rollup document. Deterministic: cohorts in key order, stage
  /// sketches in name order, derived fields (rates, p50/p90/p99)
  /// recomputed from the primitive aggregates at write time.
  void WriteJson(std::ostream& os) const;

  /// Merge a parsed rollup document's cohorts into this sink (derived
  /// fields are ignored and recomputed; primitive aggregates fold
  /// exactly). Returns false with *error on schema/shape problems.
  bool MergeJson(const JsonValue& v, std::string* error = nullptr);

 private:
  std::map<std::string, Cohort> cohorts_;
};

}  // namespace wearlock::obs
