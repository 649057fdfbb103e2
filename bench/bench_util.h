// Shared helpers for the reproduction benches: aligned table printing,
// common scenario setup, and the parallel sweep engine every fig/abl
// grid runs on. Each bench binary regenerates one paper table/figure as
// text rows (shape reproduction, not absolute numbers).
//
// Output discipline: tables and paper commentary go to stdout; timing
// and thread-count diagnostics go to stderr. That keeps stdout
// byte-identical across thread counts, which CI pins with a diff.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "dsp/stats.h"
#include "obs/metrics.h"
#include "sim/executor.h"

namespace wearlock::bench {

/// Print a fixed-width table: header row then data rows. Column widths
/// adapt to the longest cell.
void PrintTable(const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Summarize the exact samples a Series metric collected.
/// @throws if the series is empty (metric never observed).
dsp::Summary SeriesSummary(const obs::MetricsRegistry& registry,
                           const std::string& name);

/// Format a double with the given precision.
std::string Fmt(double value, int precision = 3);

/// Concatenate parts piecewise. Cell text that starts with a string
/// literal (`"[" + Fmt(...) + ...`) goes through operator+'s insert
/// path, which trips GCC 12's -Wrestrict false positive at -O3; this
/// reserves once and appends instead.
std::string Cat(std::initializer_list<std::string_view> parts);

/// Section banner for bench output.
void Banner(const std::string& title);

/// The flags every bench binary accepts:
///   --threads N   worker threads for the sweep engine (0 = default:
///                 WEARLOCK_THREADS env var, else hardware_concurrency)
///   --quick       smoke mode: 1 round per point, grids trimmed to 2
///                 points per axis (the ctest `bench_smoke` label)
///   --seed S      override the bench's base seed
///   --json PATH   also write the sweep timing report as one JSON
///                 object to PATH (see SweepRunner::WriteJsonReport)
struct BenchOptions {
  std::size_t threads = 0;
  bool quick = false;
  std::uint64_t base_seed = 0;
  std::string json_path;

  /// Rounds per point: 1 under --quick, else `full`.
  int Rounds(int full) const { return quick ? 1 : full; }

  /// Grid axis: first 2 entries under --quick, else the whole axis.
  template <typename T>
  std::vector<T> Trim(std::vector<T> axis) const {
    if (quick && axis.size() > 2) axis.resize(2);
    return axis;
  }
};

/// Parse the shared bench flags. Unknown flags print usage to stderr and
/// exit(2) so typos cannot silently run the wrong experiment.
BenchOptions ParseBenchArgs(int argc, char** argv, std::uint64_t base_seed);

/// SweepRunner: fan a bench's independent grid points out across a
/// sim::ParallelExecutor, time every point into an obs metrics registry,
/// and hand the results back in index order for ordered table emission.
///
/// Determinism contract (inherited from the executor): each point's fn
/// sees only its TaskContext (index + private Rng forked from the base
/// seed), so the result vector - and any table printed from it - is
/// byte-identical for any --threads value.
class SweepRunner {
 public:
  explicit SweepRunner(const BenchOptions& options);

  /// Run fn(TaskContext&) over n_points grid points. Per-point wall time
  /// lands in the "bench.sweep.point_ms" Series and the batch total in
  /// "bench.sweep.total_ms"; the current metrics registry (and so any
  /// library WL_* instrumentation) is installed on the workers for the
  /// duration of each point.
  template <typename Fn>
  auto Run(std::size_t n_points, Fn&& fn) {
    StartBatch(n_points);
    auto results =
        executor_.Map(n_points, options_.base_seed, [&](sim::TaskContext& ctx) {
          const PointTimerScope timer(this);
          return fn(ctx);
        });
    FinishBatch();
    return results;
  }

  /// Run fn(TaskContext&) over n_points WITHOUT recording sweep timings:
  /// primes per-worker-thread state (the thread_local dsp::Workspace,
  /// the shared FFT plan cache) so a timed Run()/RunGrid() that follows
  /// is allocation-free on its hot paths. Results are discarded.
  template <typename Fn>
  void WarmUp(std::size_t n_points, Fn&& fn) {
    executor_.Map(n_points, options_.base_seed, std::forward<Fn>(fn));
  }

  /// Grid flavour of Run(): row-major fn(GridPoint, Rng&) with the same
  /// per-point timing.
  template <typename Fn>
  auto RunGrid(std::size_t n_rows, std::size_t n_cols, Fn&& fn) {
    StartBatch(n_rows * n_cols);
    auto results = executor_.RunGrid(
        n_rows, n_cols, options_.base_seed,
        [&](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
          const PointTimerScope timer(this);
          return fn(point, rng);
        });
    FinishBatch();
    return results;
  }

  /// Print "<name>: N points on T threads, total X ms (mean point Y ms)"
  /// to stderr, reading the timings back from the metrics registry (the
  /// acceptance path for wall-clock comparisons across --threads). When
  /// --json was given, also writes WriteJsonReport() to that path.
  void PrintTiming(const std::string& sweep_name) const;

  /// Write `{"bench":name,"threads":T,"seed":S,"provenance":{...},
  /// "wall_ms":X,"per_point_ms":[...]}` to `path`, where T is
  /// reported_threads(). The provenance object stamps git_sha
  /// (resolved at build time: the short HEAD sha, with "-dirty" when
  /// tracked files differed from it), hardware_concurrency, the
  /// WEARLOCK_THREADS env value (null when unset) and the --quick flag,
  /// so archived BENCH_*.json stay interpretable. Timing goes to a side
  /// file, never stdout: table output must stay byte-identical across
  /// --threads. Returns false (with a note on stderr) when the file
  /// cannot be written.
  bool WriteJsonReport(const std::string& bench_name,
                       const std::string& path) const;

  std::size_t thread_count() const { return executor_.thread_count(); }

  /// The thread count PrintTiming() and WriteJsonReport() stamp: the
  /// runner's worker count unless set. A bench whose points each fan out
  /// on their own (fleet_throughput times one --threads campaign per
  /// point on a one-worker runner) stamps that fan-out instead.
  std::size_t reported_threads() const {
    return reported_threads_ != 0 ? reported_threads_ : thread_count();
  }
  void set_reported_threads(std::size_t threads) { reported_threads_ = threads; }

  const BenchOptions& options() const { return options_; }
  obs::MetricsRegistry& metrics() { return *registry_; }
  sim::ParallelExecutor& executor() { return executor_; }

 private:
  /// RAII: installs the runner's registry on the worker thread and
  /// records the point's wall time into it.
  class PointTimerScope {
   public:
    explicit PointTimerScope(SweepRunner* runner);
    ~PointTimerScope();
    PointTimerScope(const PointTimerScope&) = delete;
    PointTimerScope& operator=(const PointTimerScope&) = delete;

   private:
    SweepRunner* runner_;
    obs::ScopedMetricsRegistry install_;
    double start_ms_;
  };

  void StartBatch(std::size_t n_points);
  void FinishBatch();
  static double NowMs();

  BenchOptions options_;
  obs::MetricsRegistry* registry_;  // the caller's current registry
  sim::ParallelExecutor executor_;
  double batch_start_ms_ = 0.0;
  std::size_t batch_points_ = 0;
  std::size_t reported_threads_ = 0;  // 0: thread_count()
};

}  // namespace wearlock::bench
