// Concurrency stress: genuine cross-thread traffic for the TSan leg of
// tools/ci.sh (and a functional smoke test everywhere else).
//
// Three pressure points:
//   * N parallel UnlockSessions, each with its own tracer/registry -
//     session telemetry is thread-confined by design, and same-seed
//     sessions must stay bit-identical even when racing;
//   * the process-wide MetricsRegistry::Default() hammered from every
//     thread (lock-free counters and gauges, locked sketches and series,
//     mutex-guarded registration, concurrent JSON snapshots);
//   * obs::Log sink swaps racing live emission (the race this PR fixed).
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "protocol/session.h"
#include "sketch_fields.h"

namespace wearlock {
namespace {

using protocol::ScenarioConfig;
using protocol::UnlockReport;
using protocol::UnlockSession;

// Acceptance bar for the TSan leg: at least 4 concurrent sessions.
constexpr int kSessions = 6;

/// One full unlock attempt on its own session; returns a fingerprint
/// of everything that must be deterministic under a fixed seed:
/// outcome, signal statistics, modeled latency and span structure.
std::string AttemptFingerprint(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  UnlockSession session(config);
  const UnlockReport report = session.Attempt();

  std::ostringstream fp;
  fp << static_cast<int>(report.outcome) << "|" << report.unlocked << "|"
     << report.token_ber << "|" << report.pilot_snr_db << "|"
     << report.preamble_score << "|" << report.ambient_similarity << "|"
     << report.timings.total_ms() << "|spans:";
  for (const auto& span : session.tracer().spans()) fp << span.name << ",";
  return fp.str();
}

TEST(ConcurrencyStressTest, ParallelSessionsWithDistinctSeeds) {
  std::vector<std::thread> workers;
  std::vector<std::string> fingerprints(kSessions);
  std::atomic<int> unlocked{0};
  for (int i = 0; i < kSessions; ++i) {
    workers.emplace_back([i, &fingerprints, &unlocked] {
      fingerprints[static_cast<std::size_t>(i)] =
          AttemptFingerprint(1000 + static_cast<std::uint64_t>(i));
      ScenarioConfig config;
      config.seed = 2000 + static_cast<std::uint64_t>(i);
      UnlockSession session(config);
      if (session.AttemptWithRetries(2).unlocked) ++unlocked;
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::string& fp : fingerprints) {
    EXPECT_FALSE(fp.empty());
    EXPECT_NE(fp.find("spans:"), std::string::npos);
  }
  // The default quiet-ish scenario should mostly succeed; the exact
  // count is seed-dependent, but a silent total failure means the
  // pipeline broke under concurrency.
  EXPECT_GT(unlocked.load(), 0);
}

TEST(ConcurrencyStressTest, SameSeedSessionsAreBitIdenticalAcrossThreads) {
  std::vector<std::thread> workers;
  std::vector<std::string> fingerprints(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    workers.emplace_back([i, &fingerprints] {
      fingerprints[static_cast<std::size_t>(i)] = AttemptFingerprint(42);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int i = 1; i < kSessions; ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[static_cast<std::size_t>(i)])
        << "session " << i << " diverged under concurrency";
  }
}

TEST(ConcurrencyStressTest, DefaultRegistryHammeredFromAllThreads) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  auto& registry = obs::MetricsRegistry::Default();
  const std::string tag = "stress.default_registry";
  registry.GetCounter(tag + ".count");  // pre-register one metric

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &tag, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter(tag + ".count").Add();
        registry.GetGauge(tag + ".gauge").Set(static_cast<double>(t));
        registry.GetSketch(tag + ".sketch").Observe(i % 100);
        registry.GetSeries(tag + ".series").Observe(t * kIters + i);
        if (i % 1000 == 0) {
          // Concurrent snapshots must see internally consistent state.
          std::ostringstream snapshot;
          registry.WriteJson(snapshot);
          ASSERT_FALSE(snapshot.str().empty());
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(registry.GetCounter(tag + ".count").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  // The gauge holds one of the values the threads wrote, never a torn mix.
  const double gauge = registry.GetGauge(tag + ".gauge").value();
  EXPECT_EQ(gauge, static_cast<double>(static_cast<int>(gauge)));
  EXPECT_GE(gauge, 0.0);
  EXPECT_LT(gauge, static_cast<double>(kThreads));
  EXPECT_EQ(testing::SketchCount(registry.GetSketch(tag + ".sketch")),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ConcurrencyStressTest, SnapshotsDuringSketchHammerNeverGoBackwards) {
  // Snapshot() copies each sketch under the sketch's own lock, so every
  // snapshot taken mid-hammer holds a prefix of the observations: a
  // later snapshot never reports fewer. The writers start only after
  // the first snapshot, so snapshots always overlap the hammer.
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  const std::string name = "stress.snap.sketch";
  obs::MetricsRegistry registry;
  obs::Sketch& sketch = registry.GetSketch(name);
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};

  std::uint64_t snapshots_taken = 0;
  std::thread snapshotter([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t count =
          testing::SketchCount(registry.Snapshot().sketches.at(name));
      EXPECT_GE(count, last) << "sketch count went backwards";
      last = count;
      ++snapshots_taken;
      started.store(true, std::memory_order_release);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sketch, &started] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kIters; ++i) sketch.Observe(1.0 + (i % 100));
    });
  }
  for (std::thread& t : writers) t.join();
  stop = true;
  snapshotter.join();
  EXPECT_GT(snapshots_taken, 0u);
  EXPECT_EQ(testing::SketchCount(registry.Snapshot().sketches.at(name)),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ConcurrencyStressTest, LogSinkSwapsRaceLiveEmission) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> stop{false};

  std::thread swapper([&received, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::SetLogSink([&received](obs::LogLevel, const std::string&,
                                  const std::string&) { ++received; });
      obs::SetLogSink({});  // discard
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        obs::Log(obs::LogLevel::kWarn, "stress.log",
                 "thread " + std::to_string(t) + " msg " + std::to_string(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop = true;
  swapper.join();
  obs::SetLogSink({});
  // Every record hit either the counting sink or the discard default;
  // the point is that TSan sees no race and nothing crashes.
  EXPECT_LE(received.load(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace wearlock
