// Deterministic fixed-pool parallel executor.
//
// Every figure/table bench and every sweep-style test walks an
// independent (modulation x distance x noise x seed) grid; this executor
// fans those points out across worker threads without giving up the
// repo's bit-exact reproducibility. Determinism is the contract, not a
// convention:
//
//   * each task gets a private sim::Rng seeded from (base_seed,
//     task_index) BEFORE dispatch, so the random stream a task sees is a
//     pure function of its index, never of scheduling;
//   * results land in index-ordered slots, so the returned vector is
//     byte-identical for any thread count, including 1;
//   * tasks must not touch mutable shared state (the shared-state lint
//     rule polices the executor's own internals; task bodies are on the
//     honor system plus the TSan CI leg).
//
// Thread count: explicit constructor argument, else the WEARLOCK_THREADS
// environment variable, else std::thread::hardware_concurrency(); never
// more than kMaxThreads.
//
// Worker threads are long-lived, which the zero-allocation DSP core
// leans on: a task that calls dsp::Workspace::PerThread() gets the same
// thread_local arena on every point its worker runs, so scratch buffers
// grown on the first (warm-up) point are reused allocation-free for the
// rest of the sweep (docs/perf.md).
//
// There is deliberately no work stealing and no nested submission: the
// tasks this repo runs are seconds-scale simulation points, so a single
// shared index under one mutex is contention-free in practice and keeps
// the dispatch order trivially auditable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/rng.h"

namespace wearlock::sim {

/// Everything a task may read: its flat index and a private Rng forked
/// from (base_seed, index). Depending on anything else that mutates is a
/// determinism bug.
struct TaskContext {
  std::size_t index;
  Rng rng;
};

class ParallelExecutor {
 public:
  /// Upper bound on the worker count. Each worker is an OS thread, so a
  /// typo such as `--threads 40000` must be refused, not obeyed.
  static constexpr std::size_t kMaxThreads = 256;

  /// @param n_threads 0 selects DefaultThreadCount().
  /// @throws std::invalid_argument if n_threads > kMaxThreads (before
  /// any worker starts).
  explicit ParallelExecutor(std::size_t n_threads = 0);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// WEARLOCK_THREADS when set to an integer in [1, kMaxThreads], else
  /// hardware_concurrency() clamped to [1, kMaxThreads].
  static std::size_t DefaultThreadCount();

  /// The seed-forking scheme: SplitMix64 over base_seed and index.
  /// Distinct indices (and distinct base seeds) give well-separated
  /// mt19937_64 seeds even for consecutive inputs.
  static std::uint64_t TaskSeed(std::uint64_t base_seed, std::uint64_t index);

  /// How many consecutive indices a worker claims per lock acquisition.
  /// Purely a dispatch-granularity decision - tasks still run in index
  /// order within a chunk and land in index-keyed slots, so results are
  /// byte-identical for any chunk size. Oversubscribed pools (more
  /// workers than `hardware` cores, e.g. a TSan leg forcing
  /// WEARLOCK_THREADS=8 on a small box) get a near-static partition of
  /// ceil(n_tasks / workers), so each time slice runs a contiguous run
  /// of tasks instead of bouncing the batch lock every point; pools at
  /// or under the core count keep ~4 chunks per worker for load
  /// balance across uneven task costs.
  static std::size_t ChunkSize(std::size_t n_tasks, std::size_t workers,
                               std::size_t hardware);

  /// Run fn(TaskContext&) for indices [0, n_tasks) across the pool and
  /// return the results in index order. If any task throws, the
  /// lowest-index exception is rethrown after the whole batch drains
  /// (same exception at any thread count). Not re-entrant: one Map at a
  /// time per executor, and tasks must not call back into the executor.
  template <typename Fn>
  auto Map(std::size_t n_tasks, std::uint64_t base_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, TaskContext&>> {
    using R = std::invoke_result_t<Fn&, TaskContext&>;
    std::vector<std::optional<R>> slots(n_tasks);
    std::vector<std::exception_ptr> errors(n_tasks);
    RunTasks(n_tasks, [&](std::size_t i) {
      TaskContext ctx{i, Rng(TaskSeed(base_seed, i))};
      try {
        slots[i].emplace(fn(ctx));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (std::size_t i = 0; i < n_tasks; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    std::vector<R> results;
    results.reserve(n_tasks);
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

  /// A point of a row-major 2D sweep (row = outer grid axis).
  struct GridPoint {
    std::size_t row;
    std::size_t col;
    std::size_t index;  ///< flat row-major index: row * n_cols + col
  };

  /// Map over an n_rows x n_cols grid; fn(point, rng) runs once per cell
  /// and results come back row-major, byte-identical at any thread count.
  template <typename Fn>
  auto RunGrid(std::size_t n_rows, std::size_t n_cols, std::uint64_t base_seed,
               Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const GridPoint&, Rng&>> {
    return Map(n_rows * n_cols, base_seed, [&](TaskContext& ctx) {
      const GridPoint point{ctx.index / n_cols, ctx.index % n_cols, ctx.index};
      return fn(point, ctx.rng);
    });
  }

 private:
  /// Dispatch task(0..n_tasks-1) over the pool; returns once every index
  /// has finished executing.
  void RunTasks(std::size_t n_tasks,
                const std::function<void(std::size_t)>& task);

  void WorkerLoop();

  // Batch state, all guarded by mu_: workers claim the next chunk of
  // indices under the lock and run the task bodies outside it.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t n_tasks_ = 0;
  std::size_t next_index_ = 0;
  std::size_t chunk_size_ = 1;
  std::size_t pending_ = 0;
  std::uint64_t batch_id_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // constructed last, joined first
};

}  // namespace wearlock::sim
