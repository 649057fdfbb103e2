// sim::EventQueue contract: deterministic (due time, schedule order)
// drains, fail-fast validation on the scheduling APIs, and re-entrant
// scheduling from inside callbacks - the properties the session
// multiplexer leans on (docs/architecture.md).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace wearlock {
namespace {

TEST(EventQueueTest, RunsInDueTimeOrderAndAdvancesNow) {
  sim::EventQueue queue;
  std::vector<std::string> order;
  queue.ScheduleAt(30.0, [&] { order.push_back("c"); });
  queue.ScheduleAt(10.0, [&] { order.push_back("a"); });
  queue.ScheduleAt(20.0, [&] { order.push_back("b"); });
  queue.ScheduleAt(14.0, [&] { order.push_back("ref14"); });
  queue.ScheduleAt(16.0, [&] { order.push_back("ref16"); });

  EXPECT_TRUE(queue.RunOne());
  EXPECT_EQ(order, (std::vector<std::string>{"a"}));
  // The queue time now reads 10 ms: a 5 ms delay lands between the
  // 14 and 16 ms reference events.
  queue.ScheduleAfter(5.0, [&] { order.push_back("a+5"); });
  EXPECT_EQ(queue.RunUntilIdle(), 5u);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "ref14", "a+5", "ref16",
                                             "b", "c"}));
  EXPECT_FALSE(queue.RunOne()) << "idle queue must report no work";
  // The queue time stopped at the last event, 30 ms.
  EXPECT_THROW(queue.ScheduleAt(29.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(queue.ScheduleAt(30.0, [] {}));
}

TEST(EventQueueTest, TiesRunInScheduleOrder) {
  // Two events due at the same instant run in the order they were
  // scheduled - the (at_ms, id) tiebreak that keeps a drain a pure
  // function of the schedule calls.
  sim::EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    queue.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(queue.RunUntilIdle(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, ScheduleAfterIsRelativeToNow) {
  sim::EventQueue queue;
  std::vector<std::string> order;
  queue.ScheduleAt(14.0, [&] { order.push_back("ref14"); });
  queue.ScheduleAt(16.0, [&] { order.push_back("ref16"); });
  queue.ScheduleAfter(10.0, [&] {
    // Re-entrant scheduling: events may schedule more events; the
    // drain keeps going and the delay is relative to the new queue
    // time, so this one is due at 15 ms.
    queue.ScheduleAfter(5.0, [&] { order.push_back("inner"); });
  });
  EXPECT_EQ(queue.RunUntilIdle(), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"ref14", "inner", "ref16"}));

  // A zero delay is valid: "next tick", after already-due peers.
  bool ran = false;
  queue.ScheduleAfter(0.0, [&] { ran = true; });
  EXPECT_EQ(queue.RunUntilIdle(), 1u);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, SchedulingValidatesItsArguments) {
  sim::EventQueue queue;
  const auto noop = [] {};
  EXPECT_THROW(queue.ScheduleAfter(-1.0, noop), std::invalid_argument);
  EXPECT_THROW(
      queue.ScheduleAfter(std::numeric_limits<double>::quiet_NaN(), noop),
      std::invalid_argument);
  EXPECT_THROW(
      queue.ScheduleAfter(std::numeric_limits<double>::infinity(), noop),
      std::invalid_argument);
  EXPECT_THROW(queue.ScheduleAt(
                   -std::numeric_limits<double>::infinity(), noop),
               std::invalid_argument);
  // Empty callbacks are programming errors, caught at schedule time -
  // not deferred null dereferences at fire time.
  EXPECT_THROW(queue.ScheduleAfter(1.0, sim::EventQueue::Callback{}),
               std::invalid_argument);

  // Scheduling into the past would silently reorder the timeline.
  queue.ScheduleAt(10.0, noop);
  EXPECT_TRUE(queue.RunOne());
  EXPECT_THROW(queue.ScheduleAt(9.0, noop), std::invalid_argument);
  // At exactly the queue time is fine: "due immediately".
  queue.ScheduleAt(10.0, noop);
  EXPECT_EQ(queue.RunUntilIdle(), 1u);

  // A throwing schedule call must not corrupt the queue.
  EXPECT_EQ(queue.RunUntilIdle(), 0u);
}

TEST(EventQueueTest, CallbackMayScheduleDuringDrain) {
  // The retry ladder's shape: a reply schedules a follow-up from inside
  // the drain, and it runs before an event that was pending all along.
  sim::EventQueue queue;
  std::vector<std::string> order;
  queue.ScheduleAfter(100.0, [&] { order.push_back("timeout"); });
  queue.ScheduleAfter(1.0, [&] {
    order.push_back("reply");
    queue.ScheduleAfter(1.0, [&] { order.push_back("next"); });
  });
  EXPECT_EQ(queue.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<std::string>{"reply", "next", "timeout"}));
}

}  // namespace
}  // namespace wearlock
