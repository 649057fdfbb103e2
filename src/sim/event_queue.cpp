#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace wearlock::sim {

bool EventQueue::Later(const Event& a, const Event& b) {
  if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
  return a.sequence > b.sequence;
}

void EventQueue::ScheduleAt(Millis at_ms, Callback fn) {
  if (!std::isfinite(at_ms)) {
    throw std::invalid_argument("EventQueue::ScheduleAt: non-finite time " +
                                std::to_string(at_ms));
  }
  if (at_ms < now_ms_) {
    throw std::invalid_argument(
        "EventQueue::ScheduleAt: " + std::to_string(at_ms) +
        " ms is before now (" + std::to_string(now_ms_) + " ms)");
  }
  if (!fn) {
    throw std::invalid_argument("EventQueue::ScheduleAt: empty callback");
  }
  heap_.push_back(Event{at_ms, next_sequence_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::ScheduleAfter(Millis delay_ms, Callback fn) {
  if (!std::isfinite(delay_ms) || delay_ms < 0.0) {
    throw std::invalid_argument("EventQueue::ScheduleAfter: invalid delay " +
                                std::to_string(delay_ms) + " ms");
  }
  ScheduleAt(now_ms_ + delay_ms, std::move(fn));
}

bool EventQueue::RunOne() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  now_ms_ = event.at_ms;
  // Move the callback out first: it may schedule (reallocating heap_)
  // or even re-enter RunOne transitively.
  Callback fn = std::move(event.fn);
  fn();
  return true;
}

std::size_t EventQueue::RunUntilIdle() {
  std::size_t ran = 0;
  while (RunOne()) ++ran;
  return ran;
}

}  // namespace wearlock::sim
