#include "spans.h"

#include <atomic>

#include "obs/json.h"

namespace wlbench {

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::size_t SpanLog::Begin(std::string name, long parent) {
  const double now = NowMs();
  return Add(std::move(name), now, now, parent);
}

std::size_t SpanLog::Add(std::string name, double start_ms, double end_ms,
                         long parent) {
  spans_.push_back(
      {std::move(name), start_ms, end_ms, parent, track_, repeat_});
  return spans_.size() - 1;
}

void SpanLog::Append(const SpanLog& other, long parent) {
  const long base = static_cast<long>(spans_.size());
  for (Span span : other.spans_) {
    span.parent = span.parent == kRoot ? parent : span.parent + base;
    span.repeat = repeat_;
    spans_.push_back(std::move(span));
  }
}

void SpanLog::WriteJson(std::ostream& os) const {
  using wearlock::obs::JsonEscape;
  using wearlock::obs::JsonNumber;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"start_ms\":"
       << JsonNumber(s.start_ms) << ",\"end_ms\":" << JsonNumber(s.end_ms)
       << ",\"parent\":" << s.parent << ",\"track\":" << s.track
       << ",\"repeat\":" << s.repeat << "}";
  }
  os << "]}";
}

int ThreadTrack() {
  static std::atomic<int> next{0};
  thread_local const int track = next.fetch_add(1);
  return track;
}

}  // namespace wlbench
