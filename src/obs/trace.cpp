#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace wearlock::obs {
namespace {

thread_local Tracer* g_current_tracer = nullptr;

void WriteArgs(std::ostream& os, const SpanRecord& span) {
  os << "{";
  for (std::size_t i = 0; i < span.attrs.size(); ++i) {
    os << (i ? "," : "") << "\"" << JsonEscape(span.attrs[i].first)
       << "\":" << span.attrs[i].second;
  }
  os << "}";
}

}  // namespace

Tracer::Tracer(ClockFn now) : now_(std::move(now)) {}

std::size_t Tracer::BeginSpan(std::string name, std::string category) {
  if (spans_.size() >= kMaxSpans) return SpanRecord::kNoParent;
  SpanRecord span;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start_ms = Now();
  span.end_ms = span.start_ms;
  span.depth = static_cast<int>(stack_.size());
  span.parent = stack_.empty() ? SpanRecord::kNoParent : stack_.back();
  const std::size_t id = spans_.size();
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  events_.push_back({true, id});
  return id;
}

void Tracer::EndSpan(std::size_t id) {
  if (id >= spans_.size() || spans_[id].finished) return;
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it == stack_.end()) return;
  const double now = Now();
  // Close children left open (out-of-order end) at the same timestamp,
  // innermost first so B/E events stay properly nested.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ms = now;
    spans_[top].finished = true;
    events_.push_back({false, top});
    if (top == id) break;
  }
}

void Tracer::Annotate(std::size_t id, const std::string& key,
                      std::string value) {
  if (id >= spans_.size()) return;
  // Built piecewise to dodge GCC 12's -Wrestrict false positive.
  std::string quoted(1, '"');
  quoted += JsonEscape(value);
  quoted += '"';
  spans_[id].attrs.emplace_back(key, std::move(quoted));
}

void Tracer::Annotate(std::size_t id, const std::string& key, double value) {
  if (id >= spans_.size()) return;
  spans_[id].attrs.emplace_back(key, JsonNumber(value));
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const char* ph, const SpanRecord& span, bool with_args) {
    os << (first ? "" : ",") << "{\"ph\":\"" << ph << "\",\"name\":\""
       << JsonEscape(span.name) << "\",\"cat\":\"" << JsonEscape(span.category)
       << "\",\"ts\":"
       << JsonNumber((ph[0] == 'B' ? span.start_ms : span.end_ms) * 1000.0)
       << ",\"pid\":1,\"tid\":1";
    if (with_args) {
      os << ",\"args\":";
      WriteArgs(os, span);
    }
    os << "}";
    first = false;
  };
  for (const Event& event : events_) {
    const SpanRecord& span = spans_[event.span];
    if (event.begin) {
      emit("B", span, false);
    } else {
      emit("E", span, true);  // args collected by span end are complete
    }
  }
  // Spans still open at export time: close them so the JSON stays
  // loadable (trace viewers dislike dangling B events).
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    emit("E", spans_[*it], true);
  }
  os << "]}";
}

Tracer* CurrentTracer() { return g_current_tracer; }

ScopedTracer::ScopedTracer(Tracer* tracer) : previous_(g_current_tracer) {
  g_current_tracer = tracer;
}

ScopedTracer::~ScopedTracer() { g_current_tracer = previous_; }

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const char* category)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->BeginSpan(name, category);
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (tracer_ != nullptr && id_ != SpanRecord::kNoParent) {
    tracer_->EndSpan(id_);  // idempotent: a finished span stays finished
  }
}

void ScopedSpan::Attr(const std::string& key, const std::string& value) {
  if (tracer_ != nullptr && id_ != SpanRecord::kNoParent) {
    tracer_->Annotate(id_, key, value);
  }
}

void ScopedSpan::Attr(const std::string& key, double value) {
  if (tracer_ != nullptr && id_ != SpanRecord::kNoParent) {
    tracer_->Annotate(id_, key, value);
  }
}

}  // namespace wearlock::obs
