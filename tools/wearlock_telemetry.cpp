// Query CLI for the fleet telemetry pipeline: merge session-record
// JSONL and rollup JSON files, print cohort tables, extract stage
// percentiles, and diff two rollups with a regression threshold for CI
// (docs/observability.md, "Fleet telemetry").
//
// Usage:
//   wearlock_telemetry [--records r.jsonl]... [--rollup r.json]...
//                      [--out merged.json] [--cohorts]
//                      [--percentiles stage=<name>]
//   wearlock_telemetry --diff a.json b.json [--threshold 0.02]
//
// --records ingests SessionRecord JSONL (wearlock_unlock_cli
// --session-log output); --rollup merges an existing rollup document.
// Both repeat and mix freely - aggregation is exact and
// order-insensitive, so any merge order writes identical bytes.
// --out writes the merged rollup ("-" for stdout); --cohorts prints a
// per-cohort summary table; --percentiles prints p50/p90/p99 of one
// stage sketch per cohort.
//
// --diff compares rollup B (candidate) against A (baseline): flags a
// cohort when its unlock rate drops, or its false-accept rate rises,
// by more than --threshold (absolute rate), or its p99 total latency
// grows by more than the same threshold as a fraction. Exit 0 = no
// regression, 1 = regression found, 2 = usage or I/O error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "obs/rollup.h"

namespace {

using wearlock::obs::JsonParse;
using wearlock::obs::JsonValue;
using wearlock::obs::TelemetrySink;
using wearlock::obs::WilsonInterval;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wearlock_telemetry [--records r.jsonl]... [--rollup "
               "r.json]...\n"
               "                     [--out merged.json] [--cohorts]\n"
               "                     [--percentiles stage=<name>]\n"
               "  wearlock_telemetry --diff a.json b.json "
               "[--threshold 0.02]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

bool LoadRollup(const std::string& path, TelemetrySink* sink) {
  std::string text;
  if (!ReadFile(path, &text)) return false;
  std::string error;
  const auto parsed = JsonParse(text, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  if (!sink->MergeJson(*parsed, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

void PrintInterval(const char* label, const WilsonInterval& w,
                   std::uint64_t trials) {
  if (trials == 0) {
    std::printf("  %-18s n/a (no sessions)\n", label);
    return;
  }
  std::printf("  %-18s %.4f  [%.4f, %.4f]  (n=%llu)\n", label, w.rate, w.low,
              w.high, static_cast<unsigned long long>(trials));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> record_paths;
  std::vector<std::string> rollup_paths;
  std::string out_path;
  std::string percentile_stage;
  std::string diff_a;
  std::string diff_b;
  double threshold = 0.02;
  bool print_cohorts = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--records") {
      record_paths.emplace_back(next());
    } else if (arg == "--rollup") {
      rollup_paths.emplace_back(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--cohorts") {
      print_cohorts = true;
    } else if (arg == "--percentiles") {
      const std::string spec = next();
      if (spec.rfind("stage=", 0) != 0 || spec.size() <= 6) {
        std::fprintf(stderr, "--percentiles wants stage=<name>\n");
        return 2;
      }
      percentile_stage = spec.substr(6);
    } else if (arg == "--diff") {
      diff_a = next();
      diff_b = next();
      if (diff_a.empty() || diff_b.empty()) return Usage();
    } else if (arg == "--threshold") {
      const std::string v = next();
      const auto result =
          std::from_chars(v.data(), v.data() + v.size(), threshold);
      if (result.ec != std::errc() || result.ptr != v.data() + v.size() ||
          !std::isfinite(threshold) || threshold < 0.0) {
        std::fprintf(stderr, "--threshold wants a finite number >= 0\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  if (!diff_a.empty()) {
    TelemetrySink a, b;
    if (!LoadRollup(diff_a, &a) || !LoadRollup(diff_b, &b)) return 2;
    int regressions = 0;
    std::set<std::string> keys;
    for (const auto& [key, cohort] : a.cohorts()) keys.insert(key);
    for (const auto& [key, cohort] : b.cohorts()) keys.insert(key);
    for (const std::string& key : keys) {
      const auto ia = a.cohorts().find(key);
      const auto ib = b.cohorts().find(key);
      if (ib == b.cohorts().end()) {
        std::printf("REGRESSION %s: cohort missing from %s\n", key.c_str(),
                    diff_b.c_str());
        ++regressions;
        continue;
      }
      if (ia == a.cohorts().end()) {
        std::printf("note %s: new cohort (absent from baseline)\n",
                    key.c_str());
        continue;
      }
      const double unlock_a = ia->second.UnlockRate().rate;
      const double unlock_b = ib->second.UnlockRate().rate;
      if (unlock_b < unlock_a - threshold) {
        std::printf("REGRESSION %s: unlock rate %.4f -> %.4f\n", key.c_str(),
                    unlock_a, unlock_b);
        ++regressions;
      }
      const double fa_a = ia->second.FalseAcceptRate().rate;
      const double fa_b = ib->second.FalseAcceptRate().rate;
      if (fa_b > fa_a + threshold) {
        std::printf("REGRESSION %s: false-accept rate %.4f -> %.4f\n",
                    key.c_str(), fa_a, fa_b);
        ++regressions;
      }
      const auto sa = ia->second.stages.find("total");
      const auto sb = ib->second.stages.find("total");
      if (sa != ia->second.stages.end() && sb != ib->second.stages.end()) {
        const double p99_a = sa->second.Quantile(0.99);
        const double p99_b = sb->second.Quantile(0.99);
        if (p99_a > 0.0 && p99_b > p99_a * (1.0 + threshold)) {
          std::printf("REGRESSION %s: total p99 %.1f ms -> %.1f ms\n",
                      key.c_str(), p99_a, p99_b);
          ++regressions;
        }
      }
    }
    if (regressions == 0) {
      std::printf("no regressions across %zu cohorts (threshold %.3f)\n",
                  keys.size(), threshold);
      return 0;
    }
    std::printf("%d regression(s)\n", regressions);
    return 1;
  }

  if (record_paths.empty() && rollup_paths.empty()) return Usage();

  TelemetrySink sink;
  for (const std::string& path : record_paths) {
    std::string text;
    if (!ReadFile(path, &text)) return 2;
    std::string error;
    const std::size_t n = sink.IngestJsonl(text, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    std::fprintf(stderr, "%s: ingested %zu records\n", path.c_str(), n);
  }
  for (const std::string& path : rollup_paths) {
    if (!LoadRollup(path, &sink)) return 2;
  }

  if (print_cohorts) {
    for (const auto& [key, cohort] : sink.cohorts()) {
      std::printf("%s\n", key.c_str());
      std::printf("  sessions %llu (genuine %llu, impostor %llu)\n",
                  static_cast<unsigned long long>(cohort.sessions),
                  static_cast<unsigned long long>(cohort.genuine),
                  static_cast<unsigned long long>(cohort.impostor));
      PrintInterval("unlock rate", cohort.UnlockRate(), cohort.genuine);
      PrintInterval("false accepts", cohort.FalseAcceptRate(),
                    cohort.impostor);
      for (const auto& [name, count] : cohort.outcomes) {
        std::printf("  outcome %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
      }
    }
  }

  if (!percentile_stage.empty()) {
    std::printf("stage %s (p50 / p90 / p99):\n", percentile_stage.c_str());
    for (const auto& [key, cohort] : sink.cohorts()) {
      const auto it = cohort.stages.find(percentile_stage);
      if (it == cohort.stages.end()) {
        std::printf("  %-60s (no such stage)\n", key.c_str());
        continue;
      }
      std::printf("  %-60s %9.2f %9.2f %9.2f\n", key.c_str(),
                  it->second.Quantile(0.50), it->second.Quantile(0.90),
                  it->second.Quantile(0.99));
    }
  }

  if (!out_path.empty()) {
    if (out_path == "-") {
      sink.WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream os(out_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 2;
      }
      sink.WriteJson(os);
      os << "\n";
      std::fprintf(stderr, "wrote rollup to %s\n", out_path.c_str());
    }
  }
  return 0;
}
