#include "sim/executor.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace wearlock::sim {

ParallelExecutor::ParallelExecutor(std::size_t n_threads) {
  if (n_threads > kMaxThreads) {
    throw std::invalid_argument("ParallelExecutor: more than " +
                                std::to_string(kMaxThreads) + " threads");
  }
  const std::size_t count = n_threads > 0 ? n_threads : DefaultThreadCount();
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ParallelExecutor::DefaultThreadCount() {
  if (const char* env = std::getenv("WEARLOCK_THREADS")) {
    std::size_t parsed = 0;
    const auto result =
        std::from_chars(env, env + std::strlen(env), parsed);
    if (result.ec == std::errc() && *result.ptr == '\0' && parsed > 0 &&
        parsed <= kMaxThreads) {
      return parsed;
    }
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

std::uint64_t ParallelExecutor::TaskSeed(std::uint64_t base_seed,
                                         std::uint64_t index) {
  // SplitMix64 finalizer over a golden-ratio stride: consecutive indices
  // (and nearby base seeds) land far apart in seed space.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t ParallelExecutor::ChunkSize(std::size_t n_tasks,
                                        std::size_t workers,
                                        std::size_t hardware) {
  if (n_tasks <= 1 || workers <= 1) return std::max<std::size_t>(1, n_tasks);
  if (hardware == 0) hardware = 1;
  if (workers > hardware) {
    // Oversubscribed: the cores time-slice the workers, so fine-grained
    // claiming just multiplies lock handoffs and context switches
    // (BENCH_dsp_core.json's fig5 ran *slower* at 8 threads than 1 on a
    // 1-core box). Hand each worker one contiguous share up front.
    return (n_tasks + workers - 1) / workers;
  }
  // At or under the core count: ~4 chunks per worker balances uneven
  // task costs while amortizing the claim lock.
  return std::max<std::size_t>(1, n_tasks / (4 * workers));
}

void ParallelExecutor::RunTasks(
    std::size_t n_tasks, const std::function<void(std::size_t)>& task) {
  if (n_tasks == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  task_ = &task;
  n_tasks_ = n_tasks;
  next_index_ = 0;
  chunk_size_ = ChunkSize(n_tasks, workers_.size(),
                          std::thread::hardware_concurrency());
  pending_ = n_tasks;
  ++batch_id_;
  // Counted wakeups: a batch of c chunks can occupy at most c workers;
  // waking the rest just stampedes them through the lock to find no
  // work (the 1-core fig5 regression's other half).
  const std::size_t chunks = (n_tasks + chunk_size_ - 1) / chunk_size_;
  if (chunks >= workers_.size()) {
    work_ready_.notify_all();
  } else {
    for (std::size_t i = 0; i < chunks; ++i) work_ready_.notify_one();
  }
  batch_done_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
}

void ParallelExecutor::WorkerLoop() {
  std::uint64_t last_batch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [&] {
      return stopping_ || (task_ != nullptr && batch_id_ != last_batch);
    });
    if (stopping_) return;
    last_batch = batch_id_;
    // Claim a chunk of indices under the lock, run the task bodies
    // outside it. A worker that re-enters this loop while a *newer*
    // batch is already posted simply joins it: indices are claimed
    // exactly once either way, which is all the determinism contract
    // needs (results are keyed by index, never by worker or
    // completion order).
    while (task_ != nullptr && next_index_ < n_tasks_) {
      const std::size_t begin = next_index_;
      const std::size_t end = std::min(n_tasks_, begin + chunk_size_);
      next_index_ = end;
      const std::function<void(std::size_t)>* task = task_;
      lock.unlock();
      for (std::size_t index = begin; index < end; ++index) (*task)(index);
      lock.lock();
      pending_ -= end - begin;
      if (pending_ == 0) batch_done_.notify_all();
    }
  }
}

}  // namespace wearlock::sim
