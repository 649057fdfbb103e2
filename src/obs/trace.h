// Hierarchical span tracing for a WearLock unlock attempt.
//
// Spans are timestamped from a caller-supplied clock - in the simulator
// that is sim::VirtualClock, so timelines live on modeled time, not
// wall time. Same-seed sessions replay the same spans: names, order,
// nesting and timestamps. The exporter writes Chrome trace_event JSON:
// open it in chrome://tracing or https://ui.perfetto.dev (B/E duration
// events, one track).
//
// Span names follow the same dotted scheme as metrics:
// "phase1.probe_tx", "modem.sync.detect", "session.verdict", ...
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace wearlock::obs {

/// Returns "now" in milliseconds. Bind this to sim::VirtualClock::now
/// for deterministic traces, or to a host steady clock in tools that
/// have no virtual time.
using ClockFn = std::function<double()>;

struct SpanRecord {
  std::string name;
  std::string category;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int depth = 0;  ///< 0 = root
  /// Index of the parent span in Tracer::spans(), or kNoParent.
  std::size_t parent = kNoParent;
  bool finished = false;
  /// Key/value annotations (values pre-stringified; numeric values keep
  /// their JSON form via the exporter).
  std::vector<std::pair<std::string, std::string>> attrs;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

class Tracer {
 public:
  /// Without a clock every event stamps 0.0 until BindClock is called.
  explicit Tracer(ClockFn now = {});

  void BindClock(ClockFn now) { now_ = std::move(now); }

  /// Open a span; returns its id (index into spans()). Spans nest by
  /// call order: the new span's parent is the innermost open span.
  std::size_t BeginSpan(std::string name, std::string category = "wearlock");

  /// Close a span. Tolerates out-of-order closes by unwinding the open
  /// stack down to `id` (children left open are closed at the same
  /// timestamp).
  void EndSpan(std::size_t id);

  /// Attach a key/value annotation to an open or closed span.
  void Annotate(std::size_t id, const std::string& key, std::string value);
  void Annotate(std::size_t id, const std::string& key, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace_event format: {"traceEvents":[{"ph":"B"/"E",...},...]}.
  /// Timestamps are microseconds of virtual time.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  /// Begin/end emission order, kept so the Chrome exporter can replay
  /// B/E events exactly as they happened (correct nesting even for
  /// zero-duration spans).
  struct Event {
    bool begin;
    std::size_t span;
  };

  double Now() const { return now_ ? now_() : 0.0; }

  ClockFn now_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  std::vector<Event> events_;
  /// Runaway-loop backstop; a full unlock attempt is a few dozen spans.
  static constexpr std::size_t kMaxSpans = 1 << 20;
};

/// The tracer instrumented library code writes to, or nullptr when no
/// ScopedTracer is installed on this thread (spans become no-ops).
Tracer* CurrentTracer();

/// RAII installer, mirroring ScopedMetricsRegistry.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

/// RAII span: opens on construction, closes on destruction. Null-tracer
/// safe (every member is a no-op), so instrumentation sites don't need
/// to check whether tracing is active.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             const char* category = "wearlock");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const std::string& key, const std::string& value);
  void Attr(const std::string& key, double value);

  /// Close the span before scope exit (idempotent; the destructor then
  /// does nothing). Lets a stage that declares outer-scope results end
  /// its span without an artificial block.
  void End();

  Tracer* tracer() const { return tracer_; }

 private:
  Tracer* tracer_;
  std::size_t id_ = SpanRecord::kNoParent;
};

}  // namespace wearlock::obs
