// In-memory span log for the traced benchmark run.
//
// Spans are recorded from the harness itself, around its calls into the
// WearLock layers: name, host start/end (ms since the process started
// timing), the index of the span that caused it, and a track (the
// worker thread that ran it). Nothing is written until the run ends;
// wlbench/analysis.py turns the log into per-layer self time.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace wlbench {

/// Host milliseconds since the first call (steady clock).
double NowMs();

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  long parent = -1;  ///< index into the owning log, -1 for a root
  int track = 0;
  int repeat = 0;
};

class SpanLog {
 public:
  static constexpr long kRoot = -1;

  /// Open a span now; returns its index.
  std::size_t Begin(std::string name, long parent = kRoot);
  void End(std::size_t index) { spans_[index].end_ms = NowMs(); }

  /// A span whose interval is already known.
  std::size_t Add(std::string name, double start_ms, double end_ms,
                  long parent);

  /// Append another log, re-basing its parent indices; its roots hang
  /// under `parent`, and its spans take this log's repeat.
  void Append(const SpanLog& other, long parent);

  /// Track and repeat stamped on spans opened from now on.
  void set_track(int track) { track_ = track; }
  void set_repeat(int repeat) { repeat_ = repeat; }

  const Span& operator[](std::size_t i) const { return spans_[i]; }

  /// {"spans":[{"name":..,"start_ms":..,"end_ms":..,"parent":..,
  ///  "track":..,"repeat":..},...]}
  void WriteJson(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  int track_ = 0;
  int repeat_ = 0;
};

/// Small integer id of the calling thread (0 for the first thread that
/// asks, then 1, 2, ...): the span track.
int ThreadTrack();

}  // namespace wlbench
