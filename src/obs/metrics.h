// MetricsRegistry: counters, gauges, quantile sketches and raw sample
// series for the WearLock pipeline (the substrate behind the paper's
// Figs. 4-12 style per-stage measurements).
//
// Design: registration (name -> metric) is mutex-guarded and slow-path;
// counter and gauge updates are lock-free on std::atomic. A Sketch
// (obs/sketch.h) is the one distribution type; Series keeps exact raw
// samples (bounded) for bench-grade statistics. Both are mutex-guarded -
// they are meant for per-call observations, not per-sample loops.
//
// Metric names are dotted lowercase paths, "<layer>.<stage>.<what>[_unit]"
// e.g. "modem.demod.host_ms", "protocol.attempt.unlocked",
// "link.message_ms". See docs/observability.md for the full scheme.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/sketch.h"

namespace wearlock::obs {

/// Monotonically increasing event count. Lock-free increments.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value with a lock-free set (the value is stored
/// bit-packed in a 64-bit atomic).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Exact raw samples in observation order, for bench-grade statistics
/// (medians, percentiles) where sketch approximation is not enough.
/// Bounded: observations past the cap are counted but not stored.
class Series {
 public:
  explicit Series(std::size_t cap = 1 << 16) : cap_(cap) {}

  void Observe(double v);
  std::vector<double> Values() const;
  std::uint64_t count() const;  ///< total observations, including dropped

 private:
  mutable std::mutex mu_;
  std::size_t cap_;
  std::vector<double> values_;
  std::uint64_t count_ = 0;
};

/// A detached copy of a registry's state: the one read-out of every
/// metric. Each sketch and series is copied under its own lock, so a
/// snapshot taken while other threads observe is internally consistent
/// per metric.
struct MetricsSnapshot {
  struct SeriesData {
    std::uint64_t count = 0;  ///< total observations incl. dropped
    std::vector<double> values;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Sketch> sketches;
  std::map<std::string, SeriesData> series;

  /// {"counters":{...},"gauges":{...},"sketches":{...},"series":{...}};
  /// series values are emitted sorted (canonical multiset order).
  void WriteJson(std::ostream& os) const;
};

/// Named metric store. Get* registers on first use and returns a
/// reference that stays valid for the registry's lifetime. Each metric
/// kind has its own namespace (a counter and a gauge may share a name,
/// though the naming scheme discourages it).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Series& GetSeries(const std::string& name);
  /// Quantile sketch at Sketch::kAccuracy.
  Sketch& GetSketch(const std::string& name);

  /// Series values by name; empty vector when the series was never
  /// registered (lookup without registering).
  std::vector<double> SeriesValues(const std::string& name) const;

  /// Counter value by name without registering; 0 when absent. Lets
  /// const consumers (record building, assertions) read counts.
  std::uint64_t CounterValue(const std::string& name) const;

  /// Detached copy of every metric, safe to take while other threads
  /// observe.
  MetricsSnapshot Snapshot() const;

  /// Snapshot every metric as one JSON object (MetricsSnapshot's shape).
  void WriteJson(std::ostream& os) const;

  /// Process-wide default registry (used when no registry is installed
  /// via ScopedMetricsRegistry).
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Sketch>> sketches_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

/// The registry instrumented library code writes to: the innermost
/// ScopedMetricsRegistry on this thread, or Default() when none is
/// installed. Never null.
MetricsRegistry* CurrentMetrics();

/// RAII installer: routes this thread's instrumentation into `registry`
/// for the scope's lifetime (e.g. one UnlockSession attempt, or one
/// isolated bench measurement loop).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace wearlock::obs
