// Observability substrate tests: metrics registry semantics, concurrent
// observation, span nesting under a virtual clock, logging sinks, and
// JSON export well-formedness.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "json_check.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sketch_fields.h"

namespace wearlock::obs {
namespace {

// --- metrics ----------------------------------------------------------

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsTheLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.Set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(Series, KeepsExactSamplesUpToCap) {
  Series s(3);
  s.Observe(1.0);
  s.Observe(2.0);
  s.Observe(3.0);
  s.Observe(4.0);  // past the cap: counted, not stored
  EXPECT_EQ(s.Values(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(s.count(), 4u);
}

TEST(MetricsRegistry, GetReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Add(7);
  EXPECT_EQ(&registry.GetCounter("x"), &a);
  EXPECT_EQ(registry.GetCounter("x").value(), 7u);
  // Kinds have separate namespaces.
  registry.GetGauge("x").Set(1.0);
  EXPECT_EQ(registry.GetCounter("x").value(), 7u);
}

TEST(MetricsRegistry, GetSketchReturnsTheRegisteredSketch) {
  MetricsRegistry registry;
  Sketch& h = registry.GetSketch("h");
  h.Observe(2.0);
  EXPECT_EQ(&registry.GetSketch("h"), &h);
  EXPECT_EQ(testing::SketchCount(registry.GetSketch("h")), 1u);
}

TEST(MetricsRegistry, SeriesValuesWithoutRegistering) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.SeriesValues("never").empty());
  registry.GetSeries("s").Observe(3.0);
  EXPECT_EQ(registry.SeriesValues("s"), std::vector<double>{3.0});
}

TEST(MetricsRegistry, ConcurrentIncrementsDontLoseCounts) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("shared").Add();
        registry.GetSketch("lat").Observe(i % 20);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(testing::SketchCount(registry.GetSketch("lat")),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, WriteJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Add(3);
  registry.GetGauge("g\"quoted").Set(-0.25);
  registry.GetSketch("h.lat").Observe(1.0);
  registry.GetSeries("s.ms").Observe(12.0);
  std::ostringstream os;
  registry.WriteJson(os);
  testing::JsonChecker checker;
  EXPECT_TRUE(checker.Check(os.str())) << checker.error() << "\n" << os.str();
}

TEST(CurrentMetrics, DefaultsAndScopedInstall) {
  EXPECT_EQ(CurrentMetrics(), &MetricsRegistry::Default());
  MetricsRegistry outer, inner;
  {
    ScopedMetricsRegistry a(&outer);
    EXPECT_EQ(CurrentMetrics(), &outer);
    {
      ScopedMetricsRegistry b(&inner);
      EXPECT_EQ(CurrentMetrics(), &inner);
    }
    EXPECT_EQ(CurrentMetrics(), &outer);
  }
  EXPECT_EQ(CurrentMetrics(), &MetricsRegistry::Default());
}

// --- tracing ----------------------------------------------------------

TEST(Tracer, SpansNestAndTimestampFromVirtualClock) {
  sim::VirtualClock clock;
  Tracer tracer([&clock] { return clock.now(); });
  const std::size_t root = tracer.BeginSpan("attempt");
  clock.Advance(10.0);
  const std::size_t child = tracer.BeginSpan("probe");
  clock.Advance(5.0);
  tracer.EndSpan(child);
  clock.Advance(1.0);
  tracer.EndSpan(root);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& r = tracer.spans()[root];
  const SpanRecord& c = tracer.spans()[child];
  EXPECT_EQ(r.depth, 0);
  EXPECT_EQ(r.parent, SpanRecord::kNoParent);
  EXPECT_EQ(c.depth, 1);
  EXPECT_EQ(c.parent, root);
  EXPECT_DOUBLE_EQ(r.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(c.start_ms, 10.0);
  EXPECT_DOUBLE_EQ(c.end_ms, 15.0);
  EXPECT_DOUBLE_EQ(r.end_ms, 16.0);
  EXPECT_TRUE(r.finished);
  EXPECT_TRUE(c.finished);
}

TEST(Tracer, OutOfOrderEndClosesChildren) {
  Tracer tracer;
  const std::size_t outer = tracer.BeginSpan("outer");
  const std::size_t inner = tracer.BeginSpan("inner");
  tracer.EndSpan(outer);  // closes inner too
  EXPECT_TRUE(tracer.spans()[inner].finished);
  EXPECT_TRUE(tracer.spans()[outer].finished);
}

TEST(Tracer, ScopedSpanIsNullTracerSafe) {
  ScopedSpan span(nullptr, "orphan");
  span.Attr("k", 1.0);
  span.Attr("k", "v");
  span.End();  // all no-ops; must not crash
  EXPECT_EQ(span.tracer(), nullptr);
}

TEST(Tracer, ScopedSpanEndIsIdempotent) {
  sim::VirtualClock clock;
  Tracer tracer([&clock] { return clock.now(); });
  {
    ScopedSpan span(&tracer, "stage");
    clock.Advance(2.0);
    span.End();
    clock.Advance(100.0);  // destructor must not move end_ms
  }
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 2.0);
}

TEST(Tracer, ChromeExportIsWellFormed) {
  sim::VirtualClock clock;
  Tracer tracer([&clock] { return clock.now(); });
  const std::size_t root = tracer.BeginSpan("attempt");
  tracer.Annotate(root, "outcome", std::string("unlocked \"quoted\"\n"));
  tracer.Annotate(root, "snr_db", 17.25);
  clock.Advance(3.0);
  const std::size_t zero = tracer.BeginSpan("zero_duration");
  tracer.EndSpan(zero);
  tracer.EndSpan(root);
  tracer.BeginSpan("dangling");  // left open: exporter must still close

  testing::JsonChecker checker;
  std::ostringstream chrome;
  tracer.WriteChromeTrace(chrome);
  EXPECT_TRUE(checker.Check(chrome.str())) << checker.error();
  // Every B has a matching E even for the dangling span.
  std::size_t begins = 0, ends = 0, at = 0;
  const std::string text = chrome.str();
  while ((at = text.find("\"ph\":\"B\"", at)) != std::string::npos) {
    ++begins;
    at += 8;
  }
  at = 0;
  while ((at = text.find("\"ph\":\"E\"", at)) != std::string::npos) {
    ++ends;
    at += 8;
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, begins);
}

TEST(CurrentTracerTest, NullByDefaultScopedInstall) {
  EXPECT_EQ(CurrentTracer(), nullptr);
  Tracer tracer;
  {
    ScopedTracer install(&tracer);
    EXPECT_EQ(CurrentTracer(), &tracer);
  }
  EXPECT_EQ(CurrentTracer(), nullptr);
}

// --- logging ----------------------------------------------------------

TEST(Log, SinkReceivesAtOrAboveThreshold) {
  std::vector<std::string> got;
  SetLogSink([&got](LogLevel level, const std::string& component,
                    const std::string& message) {
    got.push_back(std::string(ToString(level)) + " " + component + ": " +
                  message);
  });
  SetLogThreshold(LogLevel::kInfo);
  Log(LogLevel::kDebug, "test", "dropped");
  Log(LogLevel::kWarn, "test", "kept");
  SetLogSink({});  // restore the discarding default
  SetLogThreshold(LogLevel::kInfo);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "WARN test: kept");
}

}  // namespace
}  // namespace wearlock::obs
