// sim::ParallelExecutor determinism contract.
//
// The whole point of the executor is that a sweep's numbers are a pure
// function of (base_seed, task_index) - never of the thread count or of
// scheduling order. These tests pin that contract: bit-identical doubles
// across pools of 1, 2 and 8 workers, stable nested forks, index-ordered
// exception propagation, and the WEARLOCK_THREADS override.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/executor.h"
#include "sim/rng.h"

namespace wearlock {
namespace {

// A task payload with enough internal structure to expose any seed or
// ordering bug: chained Gaussian draws, a fork, and data-dependent use.
double Workload(sim::TaskContext& ctx) {
  double acc = 0.0;
  for (int i = 0; i < 50; ++i) acc += ctx.rng.Gaussian(1.0);
  sim::Rng forked = ctx.rng.Fork();
  for (int i = 0; i < 10; ++i) acc *= 1.0 + 0.01 * forked.Uniform(-1.0, 1.0);
  return acc + static_cast<double>(ctx.index);
}

std::vector<std::uint64_t> BitPatterns(const std::vector<double>& xs) {
  std::vector<std::uint64_t> bits;
  bits.reserve(xs.size());
  for (double x : xs) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

TEST(ParallelExecutor, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kSeed = 0xABCDEF;

  std::vector<std::vector<std::uint64_t>> runs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    sim::ParallelExecutor executor(threads);
    EXPECT_EQ(executor.thread_count(), threads);
    const auto results = executor.Map(kTasks, kSeed, Workload);
    ASSERT_EQ(results.size(), kTasks);
    runs.push_back(BitPatterns(results));
  }
  EXPECT_EQ(runs[0], runs[1]) << "1-thread vs 2-thread results differ";
  EXPECT_EQ(runs[0], runs[2]) << "1-thread vs 8-thread results differ";
}

TEST(ParallelExecutor, RunGridMatchesMapAndLabelsCells) {
  constexpr std::size_t kRows = 5, kCols = 7;
  sim::ParallelExecutor executor(4);

  struct Cell {
    std::size_t row, col, index;
    double value;
  };
  const auto cells = executor.RunGrid(
      kRows, kCols, /*base_seed=*/99,
      [](const sim::ParallelExecutor::GridPoint& point, sim::Rng& rng) {
        return Cell{point.row, point.col, point.index, rng.Gaussian(1.0)};
      });
  ASSERT_EQ(cells.size(), kRows * kCols);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].row, i / kCols);
    EXPECT_EQ(cells[i].col, i % kCols);
  }

  // The grid wrapper must draw from the same (base_seed, index) stream
  // as a plain Map of the same size.
  const auto flat = executor.Map(
      kRows * kCols, /*base_seed=*/99,
      [](sim::TaskContext& ctx) { return ctx.rng.Gaussian(1.0); });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cells[i].value),
              std::bit_cast<std::uint64_t>(flat[i]))
        << "cell " << i;
  }
}

TEST(ParallelExecutor, NestedForksAreStable) {
  // Forking inside a task must also be schedule-independent: the fork
  // chain is seeded purely by the task's own rng state.
  auto chain = [](sim::TaskContext& ctx) {
    sim::Rng a = ctx.rng.Fork();
    sim::Rng b = a.Fork();
    sim::Rng c = b.Fork();
    return c.Gaussian(1.0) + b.Uniform(0.0, 1.0) +
           static_cast<double>(a.UniformInt(0, 1000));
  };
  sim::ParallelExecutor serial(1), wide(8);
  const auto lhs = serial.Map(32, 7, chain);
  const auto rhs = wide.Map(32, 7, chain);
  EXPECT_EQ(BitPatterns(lhs), BitPatterns(rhs));
}

TEST(ParallelExecutor, EmptyAndSingleTaskBatches) {
  sim::ParallelExecutor executor(4);
  const auto none = executor.Map(
      0, 1, [](sim::TaskContext&) { return 1.0; });
  EXPECT_TRUE(none.empty());
  const auto one = executor.Map(
      1, 1, [](sim::TaskContext& ctx) { return ctx.rng.Uniform(0.0, 1.0); });
  ASSERT_EQ(one.size(), 1u);

  // An empty grid in either dimension is an empty batch, not a hang.
  const auto grid = executor.RunGrid(
      0, 5, 1,
      [](const sim::ParallelExecutor::GridPoint&, sim::Rng&) { return 0; });
  EXPECT_TRUE(grid.empty());
}

TEST(ParallelExecutor, ExecutorIsReusableAcrossBatches) {
  sim::ParallelExecutor executor(3);
  std::vector<double> previous;
  for (int batch = 0; batch < 5; ++batch) {
    const auto results = executor.Map(20, 11, Workload);
    ASSERT_EQ(results.size(), 20u);
    if (!previous.empty()) {
      EXPECT_EQ(BitPatterns(results), BitPatterns(previous))
          << "same seed must reproduce across batches on one pool";
    }
    previous = results;
  }
}

TEST(ParallelExecutor, LowestIndexExceptionWins) {
  sim::ParallelExecutor executor(8);
  // Several tasks throw; the rethrown exception must always be the one
  // from the lowest failing index, regardless of completion order.
  for (int repeat = 0; repeat < 3; ++repeat) {
    try {
      (void)executor.Map(64, 1, [](sim::TaskContext& ctx) {
        if (ctx.index % 7 == 3) {  // fails at 3, 10, 17, ...
          throw std::runtime_error("task " + std::to_string(ctx.index));
        }
        return 0.0;
      });
      FAIL() << "expected Map to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3");
    }
  }
  // The pool must still be usable after a throwing batch.
  const auto ok = executor.Map(
      4, 1, [](sim::TaskContext&) { return 1.0; });
  EXPECT_EQ(ok.size(), 4u);
}

TEST(ParallelExecutor, ChunkSizePartitionsOversubscribedPools) {
  using E = sim::ParallelExecutor;
  // Oversubscribed (workers > cores): near-static partition, so an
  // 8-worker pool on 1 core claims the whole batch in <= 8 chunks.
  EXPECT_EQ(E::ChunkSize(12, 8, 1), 2u);
  EXPECT_EQ(E::ChunkSize(100, 8, 4), 13u);
  EXPECT_EQ(E::ChunkSize(7, 8, 1), 1u);
  // At or under the core count: ~4 chunks per worker.
  EXPECT_EQ(E::ChunkSize(64, 2, 8), 8u);
  EXPECT_EQ(E::ChunkSize(100, 4, 8), 6u);
  // Small batches and single workers degenerate to one claim each.
  EXPECT_EQ(E::ChunkSize(12, 4, 8), 1u);
  EXPECT_EQ(E::ChunkSize(12, 1, 1), 12u);
  EXPECT_EQ(E::ChunkSize(1, 8, 8), 1u);
  EXPECT_EQ(E::ChunkSize(0, 8, 8), 1u);
  // A zero hardware report (the standard allows it) counts as one core.
  EXPECT_EQ(E::ChunkSize(16, 4, 0), 4u);
}

TEST(ParallelExecutor, ChunkedDispatchStaysBitIdentical) {
  // Chunk size is pure dispatch granularity: uneven batch sizes that
  // exercise ragged final chunks across thread counts must still give
  // byte-identical results (including more workers than tasks).
  for (std::size_t tasks : {3u, 13u, 61u}) {
    std::vector<std::vector<std::uint64_t>> runs;
    for (std::size_t threads : {1u, 2u, 8u}) {
      sim::ParallelExecutor executor(threads);
      runs.push_back(BitPatterns(executor.Map(tasks, 0xFEEDu, Workload)));
    }
    EXPECT_EQ(runs[0], runs[1]) << tasks << " tasks, 1 vs 2 threads";
    EXPECT_EQ(runs[0], runs[2]) << tasks << " tasks, 1 vs 8 threads";
  }
}

TEST(ParallelExecutor, TaskSeedsAreDistinct) {
  // SplitMix64 over (base_seed, index): no collisions across a large
  // index range, and adjacent base seeds do not alias adjacent indices.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ull, 1ull, 0xDEADBEEFull}) {
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      seeds.insert(sim::ParallelExecutor::TaskSeed(base, i));
    }
  }
  EXPECT_EQ(seeds.size(), 30'000u);
}

TEST(ParallelExecutor, RefusesMoreThanMaxThreadsBeforeStartingAny) {
  EXPECT_THROW(sim::ParallelExecutor(sim::ParallelExecutor::kMaxThreads + 1),
               std::invalid_argument);
}

TEST(ParallelExecutor, WearlockThreadsEnvOverride) {
  const char* saved = std::getenv("WEARLOCK_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("WEARLOCK_THREADS", "3", 1);
  EXPECT_EQ(sim::ParallelExecutor::DefaultThreadCount(), 3u);
  sim::ParallelExecutor from_env(0);
  EXPECT_EQ(from_env.thread_count(), 3u);

  // Invalid or non-positive values fall back to hardware concurrency.
  ::setenv("WEARLOCK_THREADS", "banana", 1);
  EXPECT_GE(sim::ParallelExecutor::DefaultThreadCount(), 1u);
  ::setenv("WEARLOCK_THREADS", "0", 1);
  EXPECT_GE(sim::ParallelExecutor::DefaultThreadCount(), 1u);
  // So does a count above the bound; no thread is started here.
  const std::size_t fallback = sim::ParallelExecutor::DefaultThreadCount();
  ::setenv("WEARLOCK_THREADS", "40000", 1);
  EXPECT_EQ(sim::ParallelExecutor::DefaultThreadCount(), fallback);
  EXPECT_LE(fallback, sim::ParallelExecutor::kMaxThreads);

  if (saved) {
    ::setenv("WEARLOCK_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("WEARLOCK_THREADS");
  }
}

}  // namespace
}  // namespace wearlock
