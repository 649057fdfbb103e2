// Event-driven unlock attempt: the Fig. 2 protocol as a coroutine state
// machine scheduled on a sim::EventQueue.
//
// One AttemptMachine is one power-button press. Every modeled wait of
// the protocol - RTS/CTS round trips, probe and token airtime, ARQ
// timeouts, bounded backoff, link-outage waits, upload transfers, the
// distance-bounding exchange - suspends the coroutine and schedules its
// continuation on the queue, so a single thread multiplexes thousands
// of in-flight attempts at different protocol stages. UnlockSession
// builds one machine per press: its blocking Attempt() drains one
// session's machine on a private queue, and StartAsync() shares a
// caller's queue. The attempt is a sequence of stage coroutines; each
// returns the final outcome when it ends the attempt, nullopt to hand
// over, and what one stage learns for a later one lives in members.
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
#include <string>
#include <vector>

#include "audio/scene.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/acoustic_mac.h"
#include "protocol/keyguard.h"
#include "protocol/messages.h"
#include "protocol/offload.h"
#include "protocol/otp_service.h"
#include "protocol/phone_controller.h"
#include "protocol/watch_controller.h"
#include "sensors/motion_sim.h"
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
  /// them alive. When `faults` is non-null, every control message and
  /// capture routes through it and the resilience policy (timeouts,
  /// ARQ, degrade ladder) engages. Construction is inert - Start()
  /// schedules the first slice at the queue's current time.
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
  /// A protocol step: the attempt's final outcome, or nullopt to go on.
  using Step = sim::CoTask<std::optional<UnlockOutcome>>;

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
  /// The protocol body: the stages in order, until one decides.
  sim::CoTask<> RunInner();

  // Stages, in protocol order; RunPhase2 always decides.
  Step RunConnect();  // keyguard, link check, RTS/CTS
  Step RunProbe();    // ambient window, volume rule, probe ARQ, drift
  sim::CoTask<> TrackDrift();
  std::optional<UnlockOutcome> RunFilters();  // ambient/motion/NLOS/range
  Step RunRanging();  // distance bounding, motion fast path
  Step RunAdapt();    // sub-channels, mode, Phase-2 config
  sim::CoTask<UnlockOutcome> RunPhase2();
  Step Phase2Round(const modem::TxFrame& data_tx, int round, bool want_soft,
                   std::vector<std::uint8_t>* bits, std::vector<double>* llrs);

  // Transport, waits and accounting shared by the stages. Charge is the
  // modeled wait that also counts against the attempt's budgets.
  sim::CoTask<> Charge(sim::Millis ms);
  sim::Millis TotalLeft() const;
  void Trace(const std::string& step, const std::string& detail);
  void MaybeDegrade();
  sim::CoTask<> BackoffPause(int attempt, sim::Millis& comm_ms);
  Step WaitOutLink(sim::Millis stage_left, sim::Millis& comm_ms);
  Step Deliver(const std::function<sim::FaultInjector::SendResult()>& send,
               sim::Millis max_delay_ms, sim::Millis& comm_ms,
               sim::Millis* delay_ms);
  Step SendControl(const std::string& stage, sim::Millis& comm_ms);
  Step Upload(const std::string& stage, const std::string& step,
              const std::string& local_work, std::size_t bytes,
              sim::Millis& comm_ms, sim::Millis* transfer_ms, bool* uploaded);
  sim::CoTask<StepCost> ChargeCost(sim::Millis transfer_ms,
                                   sim::Millis& compute_ms,
                                   sim::Millis& comm_ms);
  sim::CoTask<bool> MacAcquire(const char* stage, sim::Millis& audio_ms);

  const PhoneConfig& config_;
  const ResilienceConfig& res_;
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
  UnlockReport report_;

  // Attempt state, handed from stage to stage.
  /// ARQ and the degrade ladder engage only with a fault injector wired
  /// in; campaign mode (force_transmit) stays single-shot so Table-I
  /// style raw-channel BER measurements are unaffected.
  const bool resilient_;
  /// Crowded-world hardening (docs/channels.md) engages only when the
  /// scene has channel impairments armed; clean scenes keep their draws.
  audio::ChannelImpairments* const chan_;
  const bool hardened_;
  /// Protocol-time accumulator: audio, communication and waits, but NOT
  /// DSP compute. Budget and deadline decisions run on this accumulator;
  /// the virtual clock also carries compute for the latency reports.
  sim::Millis proto_ms_ = 0.0;
  /// Degrade ladder: after degrade_after_link_faults link faults, the
  /// rest of the attempt processes watch-local instead of offloading.
  OffloadPlanner effective_;
  int link_faults_ = 0;
  std::optional<CarrierSenseReport> sense_;  // latest, feeds reselection
  double compensate_ppm_ = 0.0;              // warp undone on captures
  int sync_failures_ = 0;
  std::optional<modem::AcousticModem> modem_;  // built after link check
  audio::Samples phone_ambient_pre_;
  audio::Samples watch_ambient_pre_;
  Phase1Report phase1_;
  std::optional<modem::ProbeAnalysis> probe_;
  bool skip_phase2_ = false;
  Phase2Config phase2_config_;
  std::optional<audio::Samples> interference_;  // attack_'s, rendered once
};

}  // namespace wearlock::protocol
