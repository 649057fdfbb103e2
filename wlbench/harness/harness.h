// Shared pieces of the benchmark harness: run options, exact work
// counters, and the raw-result JSON writer. The harness measures and
// reports raw facts (wall times, counters, rollup digests, spans);
// wlbench/analysis.py turns them into the named metrics.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "spans.h"

namespace wlbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span log.
  std::string trace_out;
};

/// Process-wide work counters that must repeat exactly between runs of
/// the same seed.
struct WorkCounters {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t growths = 0;

  static WorkCounters Now();
  WorkCounters operator-(const WorkCounters& base) const;
};

/// FNV-1a 64 of a byte string, as 16 hex digits (rollup identity).
std::string Digest(const std::string& bytes);

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuS();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Minimal JSON object writer for the raw result line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, std::uint64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Nums(const std::string& key, const std::vector<double>& v);
  /// Pre-rendered JSON value (object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& Counters(const std::string& key, const WorkCounters& c);
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream& Key(const std::string& key);
  std::ostringstream body_;
  bool first_ = true;
};

/// "[a,b,...]" from pre-rendered JSON values.
std::string JsonArray(const std::vector<std::string>& items);

/// A span for the modem.sync nested in the demod-family call `parent`
/// just closed: its duration is the last modem.sync.host_ms sample in
/// `registry`, and it starts at the parent's start (Detect runs first).
void AddNestedSync(const wearlock::obs::MetricsRegistry& registry,
                   std::size_t parent, SpanLog* log);

/// Workload entry points; each prints one raw JSON line on `out` and
/// returns the process exit code.
int RunFleet(const Options& options, std::ostream& out);
int RunSweep(const Options& options, std::ostream& out);

/// Write the span log to options.trace_out.
void WriteSpans(const Options& options, const SpanLog& log);

}  // namespace wlbench
