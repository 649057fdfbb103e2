// Event-driven unlock attempt: the Fig. 2 protocol as a coroutine state
// machine scheduled on a sim::EventQueue.
//
// One AttemptMachine is one power-button press. Every modeled wait of
// the protocol - RTS/CTS round trips, probe and token airtime, ARQ
// timeouts, bounded backoff, link-outage waits, upload transfers, the
// distance-bounding exchange - suspends the coroutine and schedules its
// continuation on the queue, so a single thread multiplexes thousands
// of in-flight attempts at different protocol stages. UnlockSession
// owns the only driver: its blocking Attempt() drains one session's
// machine on a private queue, and StartAsync() shares a caller's queue.
//
// Clock doctrine (docs/architecture.md): the queue's clock is shared
// and only orders the interleave; the machine advances its *session's*
// sim::VirtualClock by its own wait amounts when each event fires, so
// per-session timelines are independent of co-tenants. Observability is
// ambient (thread-local), so each resume slice reinstalls the session's
// tracer/metrics around the coroutine step (AttemptHooks).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>

#include "audio/scene.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/phone_controller.h"
#include "sensors/filter.h"
#include "sim/clock.h"
#include "sim/co_task.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/wireless.h"

namespace wearlock::protocol {

/// Per-slice ambient wiring plus completion notification for one
/// event-driven attempt. All three members are required.
struct AttemptHooks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Runs once, after the report is final and the slice's ambient
  /// sinks are uninstalled. May start other work on the queue, but
  /// must not destroy this machine (a frame is live on the stack).
  std::function<void()> on_done;
};

class AttemptMachine {
 public:
  /// Collaborators must outlive the machine; `motion`, `offload` and
  /// `attack` are captured by value so async callers need not keep
  /// them alive. Construction is inert - Start() schedules the first
  /// slice at the queue's current time.
  AttemptMachine(const PhoneConfig& config, OtpService* otp,
                 Keyguard* keyguard, std::uint64_t session_id,
                 audio::TwoMicScene& scene, WatchController& watch,
                 sim::WirelessLink& link, sensors::MotionPair motion,
                 OffloadPlanner offload, sim::VirtualClock& clock,
                 AttackInjection attack, sim::FaultInjector* faults,
                 sim::EventQueue& queue, AttemptHooks hooks);
  AttemptMachine(const AttemptMachine&) = delete;
  AttemptMachine& operator=(const AttemptMachine&) = delete;

  /// Schedule the first slice. The machine must stay alive until
  /// hooks.on_done runs (pending events hold a pointer to it).
  void Start();

  /// The finished attempt's report; rethrows if the protocol body
  /// threw. Call at most once, from or after hooks.on_done.
  UnlockReport TakeReport();

 private:
  struct WaitAwaiter {
    AttemptMachine* machine;
    sim::Millis wait_ms;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) const {
      machine->ScheduleResume(wait_ms, handle);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable modeled wait: suspends, schedules the continuation
  /// `ms` later on the queue, and advances the session clock by `ms`
  /// when the event fires (the event-queue form of clock.Advance).
  WaitAwaiter Wait(sim::Millis ms) { return WaitAwaiter{this, ms}; }

  void ScheduleResume(sim::Millis ms, std::coroutine_handle<> handle);
  /// Run one coroutine step with the session's ambient sinks
  /// installed; fires on_done when the root task completes.
  void ResumeSlice(std::coroutine_handle<> handle);

  /// Root span, protocol body, verdict span, end-of-attempt metrics.
  sim::CoTask<> Run();
  /// The protocol body, one co_await per modeled wait.
  sim::CoTask<UnlockReport> RunInner();

  const PhoneConfig& config_;
  OtpService* otp_;
  Keyguard* keyguard_;
  const std::uint64_t session_id_;
  audio::TwoMicScene& scene_;
  WatchController& watch_;
  sim::WirelessLink& link_;
  const sensors::MotionPair motion_;
  const OffloadPlanner offload_;
  sim::VirtualClock& clock_;
  const AttackInjection attack_;
  sim::FaultInjector* faults_;
  sim::EventQueue& queue_;
  AttemptHooks hooks_;

  sim::CoTask<> root_;
  sim::EventQueue::EventId pending_event_ = 0;
  UnlockReport report_;
};

}  // namespace wearlock::protocol
