// Deterministic virtual-clock event queue: the multiplexer that lets
// one thread drive thousands of in-flight unlock sessions.
//
// Events are ordered by (virtual due time, schedule sequence): two
// events due at the same instant run in the order they were scheduled,
// so a drain is a pure function of the schedule calls - never of heap
// internals or host timing. The queue's clock is *global* to the queue
// (it only decides cross-session interleaving); each session keeps its
// own sim::VirtualClock and advances it by its own waits when its event
// fires, so a session's state evolution is byte-identical whether it
// runs alone or multiplexed among thousands (docs/architecture.md).
//
// Scheduling is fallible by contract: negative delays, due times in the
// past, non-finite times and empty callbacks are programming errors and
// throw std::invalid_argument instead of silently reordering the
// timeline. A scheduled event always runs: nothing cancels one.
//
// Single-threaded by design: one queue per shard, shards fanned across
// sim::ParallelExecutor workers with no shared mutable state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.h"

namespace wearlock::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute queue time `at_ms`. Throws
  /// std::invalid_argument when `at_ms` precedes the queue time, is not
  /// finite, or `fn` is empty.
  void ScheduleAt(Millis at_ms, Callback fn);

  /// Schedule `fn` `delay_ms` after the queue time. Throws
  /// std::invalid_argument when `delay_ms` is negative or not finite, or
  /// `fn` is empty.
  void ScheduleAfter(Millis delay_ms, Callback fn);

  /// Run the earliest pending event, advancing the queue time to its due
  /// time. Returns false when the queue is idle.
  bool RunOne();

  /// Drain until no event is pending (events may schedule more events);
  /// returns how many ran.
  std::size_t RunUntilIdle();

 private:
  struct Event {
    Millis at_ms;
    std::uint64_t sequence;  ///< schedule order: the tie-break
    Callback fn;
  };

  /// Min-heap order on (at_ms, sequence): strict-weak via "later runs
  /// lower".
  static bool Later(const Event& a, const Event& b);

  /// The queue time: the due time of the last event run (0 before any),
  /// monotonic across a drain.
  Millis now_ms_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  std::vector<Event> heap_;
};

}  // namespace wearlock::sim
