// Instrumentation macros - the only obs API that hot library code
// should touch. Spans are a null-check when no tracer is installed;
// counters and gauges are lock-free atomics, and WL_HIST records into
// the named quantile Sketch (a log-bucketed histogram, obs/sketch.h).
//
//   WL_SPAN("modem.demod");            // RAII span, anonymous
//   WL_SPAN_V(span, "phase2.demod");   // named variable, for attrs
//   WL_SPAN_ATTR(span, "snr_db", snr);
//   WL_SPAN_END(span);                 // close early, before scope exit
//   WL_COUNT("modem.demod.calls");
//   WL_COUNT_N("link.bytes", n);
//   WL_GAUGE_SET("modem.plan.data_bins", bins);
//   WL_HIST("modem.pilot_snr_db", snr);
//   WL_SERIES("protocol.unlock.total_ms", ms);
//   WL_TIMED_SERIES("modem.demod.host_ms");  // RAII host-time sample
#pragma once

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace wearlock::obs {

/// Host wall-clock stopwatch (steady_clock). Host time is
/// nondeterministic, so it feeds metrics (series/sketches), never
/// span timestamps - those stay on the virtual clock. This is the one
/// sanctioned wall-clock reader besides sim::TimeHostMs, hence the
/// determinism-rule suppressions.
class HostTimer {
 public:
  HostTimer() : start_(std::chrono::steady_clock::now()) {}  // NOLINT(determinism)
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)  // NOLINT(determinism)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;  // NOLINT(determinism)
};

/// RAII: observes the scope's host-time duration into a Series on the
/// current registry at destruction (so early returns are measured too).
class ScopedSeriesTimer {
 public:
  explicit ScopedSeriesTimer(const char* name) : name_(name) {}
  ~ScopedSeriesTimer() {
    CurrentMetrics()->GetSeries(name_).Observe(timer_.ElapsedMs());
  }
  ScopedSeriesTimer(const ScopedSeriesTimer&) = delete;
  ScopedSeriesTimer& operator=(const ScopedSeriesTimer&) = delete;

 private:
  const char* name_;
  HostTimer timer_;
};

}  // namespace wearlock::obs

#define WL_OBS_CONCAT_INNER(a, b) a##b
#define WL_OBS_CONCAT(a, b) WL_OBS_CONCAT_INNER(a, b)

#define WL_SPAN(name)                                         \
  ::wearlock::obs::ScopedSpan WL_OBS_CONCAT(wl_span_, __LINE__)( \
      ::wearlock::obs::CurrentTracer(), name)
#define WL_SPAN_V(var, name) \
  ::wearlock::obs::ScopedSpan var(::wearlock::obs::CurrentTracer(), name)
#define WL_SPAN_ATTR(var, key, value) var.Attr(key, value)
#define WL_SPAN_END(var) var.End()
#define WL_COUNT(name) \
  ::wearlock::obs::CurrentMetrics()->GetCounter(name).Add()
#define WL_COUNT_N(name, n) \
  ::wearlock::obs::CurrentMetrics()->GetCounter(name).Add(n)
#define WL_GAUGE_SET(name, v) \
  ::wearlock::obs::CurrentMetrics()->GetGauge(name).Set(v)
#define WL_HIST(name, v) \
  ::wearlock::obs::CurrentMetrics()->GetSketch(name).Observe(v)
#define WL_SERIES(name, v) \
  ::wearlock::obs::CurrentMetrics()->GetSeries(name).Observe(v)
#define WL_TIMED_SERIES(name)                  \
  ::wearlock::obs::ScopedSeriesTimer WL_OBS_CONCAT(wl_timer_, __LINE__)( \
      name)
