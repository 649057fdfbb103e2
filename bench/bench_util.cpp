#include "bench_util.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "obs/json.h"
#include "wearlock_git_sha.h"

namespace wearlock::bench {

void PrintTable(const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  std::printf("|");
  for (std::size_t c = 0; c < widths.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) print_row(row);
}

dsp::Summary SeriesSummary(const obs::MetricsRegistry& registry,
                           const std::string& name) {
  return dsp::Summarize(registry.SeriesValues(name));
}

std::string Fmt(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << value;
  return oss.str();
}

std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  std::size_t total = 0;
  for (std::string_view part : parts) total += part.size();
  out.reserve(total);
  for (std::string_view part : parts) out.append(part);
  return out;
}

void Banner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

namespace {

/// Commit the binary was built from, "-dirty" when tracked files
/// differed from it ("unknown" outside git; bench/git_sha.cmake writes
/// the header at build time).
const char* WearlockGitSha() { return WEARLOCK_GIT_SHA; }

std::size_t ParseCount(const char* s) {
  std::size_t parsed = 0;
  const auto result = std::from_chars(s, s + std::strlen(s), parsed);
  if (result.ec != std::errc() || *result.ptr != '\0') {
    std::fprintf(stderr, "bench: cannot parse count '%s'\n", s);
    std::exit(2);
  }
  return parsed;
}

[[noreturn]] void ExitWithUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--quick] [--seed S] [--json PATH]\n"
               "  N is at most %zu\n",
               argv0, sim::ParallelExecutor::kMaxThreads);
  std::exit(2);
}

}  // namespace

BenchOptions ParseBenchArgs(int argc, char** argv, std::uint64_t base_seed) {
  BenchOptions options;
  options.base_seed = base_seed;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      options.threads = ParseCount(argv[++i]);
      if (options.threads > sim::ParallelExecutor::kMaxThreads) {
        std::fprintf(stderr, "bench: too many threads '%s'\n", argv[i]);
        ExitWithUsage(argv[0]);
      }
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      options.base_seed = ParseCount(argv[++i]);
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "bench: unknown flag '%s'\n", arg);
      ExitWithUsage(argv[0]);
    }
  }
  return options;
}

SweepRunner::SweepRunner(const BenchOptions& options)
    : options_(options),
      registry_(obs::CurrentMetrics()),
      executor_(options.threads) {}

double SweepRunner::NowMs() {
  // Host wall time is the measurement itself here - benches report
  // real latency.
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now()  // NOLINT(determinism)
                 .time_since_epoch())
      .count();
}

SweepRunner::PointTimerScope::PointTimerScope(SweepRunner* runner)
    : runner_(runner), install_(runner->registry_), start_ms_(NowMs()) {}

SweepRunner::PointTimerScope::~PointTimerScope() {
  runner_->registry_->GetSeries("bench.sweep.point_ms")
      .Observe(NowMs() - start_ms_);
}

void SweepRunner::StartBatch(std::size_t n_points) {
  batch_points_ = n_points;
  batch_start_ms_ = NowMs();
}

void SweepRunner::FinishBatch() {
  const double total_ms = NowMs() - batch_start_ms_;
  registry_->GetSeries("bench.sweep.total_ms").Observe(total_ms);
  registry_->GetGauge("bench.sweep.threads")
      .Set(static_cast<double>(thread_count()));
}

void SweepRunner::PrintTiming(const std::string& sweep_name) const {
  const std::vector<double> totals =
      registry_->SeriesValues("bench.sweep.total_ms");
  const std::vector<double> points =
      registry_->SeriesValues("bench.sweep.point_ms");
  double total_ms = 0.0;
  for (double t : totals) total_ms += t;
  const dsp::Summary point_summary =
      dsp::Summarize(points.empty() ? std::vector<double>{0.0} : points);
  std::fprintf(stderr,
               "[sweep] %s: %zu points on %zu threads, total %.1f ms "
               "(mean point %.2f ms)\n",
               sweep_name.c_str(), points.size(), reported_threads(), total_ms,
               point_summary.mean);
  if (!options_.json_path.empty()) {
    WriteJsonReport(sweep_name, options_.json_path);
  }
}

bool SweepRunner::WriteJsonReport(const std::string& bench_name,
                                  const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[sweep] cannot write json report '%s'\n",
                 path.c_str());
    return false;
  }
  const std::vector<double> totals =
      registry_->SeriesValues("bench.sweep.total_ms");
  const std::vector<double> points =
      registry_->SeriesValues("bench.sweep.point_ms");
  double wall_ms = 0.0;
  for (double t : totals) wall_ms += t;
  std::fprintf(out, "{\"bench\":\"%s\",\"threads\":%zu,\"seed\":%llu,",
               bench_name.c_str(), reported_threads(),
               static_cast<unsigned long long>(options_.base_seed));
  // Provenance: enough context to interpret (or distrust) a BENCH_*.json
  // pulled out of CI weeks later - which commit, how parallel the host
  // was, whether the thread count came from the environment, and whether
  // the numbers are from a --quick smoke or a full sweep.
  const char* threads_env = std::getenv("WEARLOCK_THREADS");
  std::fprintf(out,
               "\"provenance\":{\"git_sha\":\"%s\","
               "\"hardware_concurrency\":%u,",
               WearlockGitSha(), std::thread::hardware_concurrency());
  if (threads_env != nullptr) {
    std::fprintf(out, "\"wearlock_threads_env\":\"%s\",",
                 obs::JsonEscape(threads_env).c_str());
  } else {
    std::fprintf(out, "\"wearlock_threads_env\":null,");
  }
  std::fprintf(out, "\"quick\":%s},", options_.quick ? "true" : "false");
  std::fprintf(out, "\"wall_ms\":%.3f,\"per_point_ms\":[", wall_ms);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(out, "%s%.3f", i ? "," : "", points[i]);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  return true;
}

}  // namespace wearlock::bench
