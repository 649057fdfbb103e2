#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace wearlock::obs {
namespace {

thread_local MetricsRegistry* g_current_metrics = nullptr;

template <typename T>
T& GetOrCreate(std::map<std::string, std::unique_ptr<T>>& store,
               const std::string& name) {
  auto it = store.find(name);
  if (it == store.end()) it = store.emplace(name, std::make_unique<T>()).first;
  return *it->second;
}

}  // namespace

void Series::Observe(double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (values_.size() < cap_) values_.push_back(v);
}

std::vector<double> Series::Values() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

std::uint64_t Series::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(counters_, name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(gauges_, name);
}

Series& MetricsRegistry::GetSeries(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(series_, name);
}

Sketch& MetricsRegistry::GetSketch(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return GetOrCreate(sketches_, name);
}

std::uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

std::vector<double> MetricsRegistry::SeriesValues(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  return it != series_.end() ? it->second->Values() : std::vector<double>{};
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, sketch] : sketches_) {
    snap.sketches.emplace(name, *sketch);  // copy ctor locks the source
  }
  for (const auto& [name, s] : series_) {
    MetricsSnapshot::SeriesData data;
    data.values = s->Values();  // read values first so count >= size
    data.count = s->count();
    snap.series.emplace(name, std::move(data));
  }
  return snap;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  auto key = [](const std::string& name) {
    // Built piecewise: a `"x" + str + "y"` concatenation chain trips
    // GCC 12's -Wrestrict false positive at -O2 under -Werror.
    std::string k(1, '"');
    k += JsonEscape(name);
    k += "\":";
    return k;
  };
  // IEEE-754 total order: a canonical sort that distinguishes -0.0
  // from 0.0 and places NaNs deterministically, so series bytes never
  // depend on the order racing threads observed in.
  auto total_order_key = [](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
  };

  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ",") << key(name)
       << JsonNumber(static_cast<double>(value));
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "" : ",") << key(name) << JsonNumber(value);
    first = false;
  }
  os << "},\"sketches\":{";
  first = true;
  for (const auto& [name, sketch] : sketches) {
    os << (first ? "" : ",") << key(name);
    sketch.WriteJson(os);
    first = false;
  }
  os << "},\"series\":{";
  first = true;
  for (const auto& [name, data] : series) {
    std::vector<double> sorted = data.values;
    std::sort(sorted.begin(), sorted.end(),
              [&](double a, double b) {
                return total_order_key(a) < total_order_key(b);
              });
    os << (first ? "" : ",") << key(name) << "{\"count\":"
       << JsonNumber(static_cast<double>(data.count)) << ",\"values\":[";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      os << (i ? "," : "") << JsonNumber(sorted[i]);
    }
    os << "]}";
    first = false;
  }
  os << "}}";
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  // Serialize from a detached snapshot: one consistent read of every
  // metric, plus canonical series ordering.
  Snapshot().WriteJson(os);
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: instrumented code may observe during static
  // destruction, so the default registry must never be destroyed.
  static MetricsRegistry* const registry =
      new MetricsRegistry();  // NOLINT(banned-api): intentional leak
  return *registry;
}

MetricsRegistry* CurrentMetrics() {
  return g_current_metrics != nullptr ? g_current_metrics
                                      : &MetricsRegistry::Default();
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry* registry)
    : previous_(g_current_metrics) {
  g_current_metrics = registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  g_current_metrics = previous_;
}

}  // namespace wearlock::obs
