#include "protocol/session.h"

#include <cmath>
#include <utility>

#include "audio/noise.h"
#include "modem/constellation.h"
#include "obs/instrument.h"
#include "protocol/attempt_machine.h"
#include "sim/event_queue.h"

namespace wearlock::protocol {
namespace {

sim::LinkModel LinkFor(sim::Radio radio) {
  return radio == sim::Radio::kBluetooth ? sim::LinkModel::Bluetooth()
                                         : sim::LinkModel::Wifi();
}

}  // namespace

ScenarioConfig ScenarioConfig::Config1() {
  ScenarioConfig c;
  c.label = "config1";
  c.radio = sim::Radio::kWifi;
  c.processing = ProcessingSite::kOffloadToPhone;
  c.phone_profile = sim::DeviceProfile::Nexus6();
  return c;
}

ScenarioConfig ScenarioConfig::Config2() {
  ScenarioConfig c;
  c.label = "config2";
  c.radio = sim::Radio::kBluetooth;
  c.processing = ProcessingSite::kOffloadToPhone;
  c.phone_profile = sim::DeviceProfile::GalaxyNexus();
  return c;
}

ScenarioConfig ScenarioConfig::Config3() {
  ScenarioConfig c;
  c.label = "config3";
  c.radio = sim::Radio::kBluetooth;
  c.processing = ProcessingSite::kWatchLocal;
  c.phone_profile = sim::DeviceProfile::Nexus6();
  return c;
}

UnlockSession::UnlockSession(ScenarioConfig config)
    : config_(config),
      rng_(config.seed),
      scene_(config.scene, rng_.Fork()),
      link_(LinkFor(config.radio), rng_.Fork(), config.wireless_connected),
      keyguard_(),
      otp_(config.otp_key),
      watch_controller_(config.phone.frame),
      offload_{.site = config.processing,
               .watch = sim::DeviceProfile::Moto360(),
               .phone = config.phone_profile},
      motion_sim_(rng_.Fork()) {
  // The injector's stream forks AFTER scene/link/motion, so adding (or
  // clearing) a fault plan never shifts those subsystems' draws - the
  // no-fault acoustics of a seed are identical with or without faults.
  sim::Rng fault_rng = rng_.Fork();
  if (!config_.faults.empty() || config_.arm_resilience) {
    fault_injector_.emplace(config_.faults, std::move(fault_rng), &clock_);
  }
  // The impairment stream forks AFTER the fault fork - last in the
  // session's fork order - so arming (or clearing) a channel plan never
  // shifts any other subsystem's draws (docs/channels.md). An unarmed
  // scene never consults the fork.
  sim::Rng impairment_rng = rng_.Fork();
  if (!config_.impairments.empty()) {
    scene_.ArmImpairments(
        config_.impairments, std::move(impairment_rng),
        config_.phone.enable_channel_hardening ? kRxWindowGuardSamples : 0);
  }
  tracer_.BindClock([this] { return clock_.now(); });
}

sensors::MotionPair UnlockSession::SampleMotion() {
  if (config_.same_body) {
    return motion_sim_.CoLocatedPair(config_.activity, config_.motion_samples);
  }
  // Different people: phone holder's activity per config, watch wearer
  // doing something else.
  const sensors::Activity other =
      config_.activity == sensors::Activity::kSitting
          ? sensors::Activity::kWalking
          : sensors::Activity::kSitting;
  return motion_sim_.IndependentPair(config_.activity, other,
                                     config_.motion_samples);
}

/// One StartAsync round in flight. The round owns the current attempt's
/// machine; the machine is only ever replaced (or destroyed) from a
/// backoff event or the round's destructor - never from inside its own
/// final slice (HandleAttemptDone runs there).
struct UnlockSession::AsyncRound {
  sim::EventQueue* queue = nullptr;
  int max_retries = 0;
  AttackInjection attack;
  std::function<void(const UnlockReport&)> on_done;
  int retries_used = 0;
  std::unique_ptr<AttemptMachine> machine;
};

UnlockSession::~UnlockSession() = default;

UnlockReport UnlockSession::Attempt(const AttackInjection& attack) {
  // A single press is a zero-retry round; the retry ladder never
  // engages and the record carries retries=0, as before the refactor.
  return AttemptWithRetries(/*max_retries=*/0, attack);
}

UnlockReport UnlockSession::AttemptWithRetries(int max_retries,
                                               const AttackInjection& attack) {
  // Blocking shim over the event-driven round: a private queue drains
  // this one session to completion, replaying the old synchronous
  // retry loop byte-for-byte.
  sim::EventQueue queue;
  UnlockReport result;
  StartAsync(queue, max_retries, attack,
             [&result](const UnlockReport& report) { result = report; });
  queue.RunUntilIdle();
  async_round_.reset();
  return result;
}

void UnlockSession::StartAsync(
    sim::EventQueue& queue, int max_retries, const AttackInjection& attack,
    std::function<void(const UnlockReport&)> on_done) {
  async_round_ = std::make_unique<AsyncRound>();
  async_round_->queue = &queue;
  async_round_->max_retries = max_retries;
  async_round_->attack = attack;
  async_round_->on_done = std::move(on_done);
  BeginAttempt();
}

void UnlockSession::BeginAttempt() {
  AsyncRound& round = *async_round_;
  // Fresh motion per attempt, drawn at attempt start exactly where the
  // blocking path drew it, so the motion stream is position-identical.
  const sensors::MotionPair motion = SampleMotion();
  AttemptHooks hooks;
  hooks.tracer = &tracer_;
  hooks.metrics = &metrics_;
  hooks.on_done = [this] { HandleAttemptDone(); };
  round.machine = std::make_unique<AttemptMachine>(
      config_.phone, &otp_, &keyguard_, next_session_id_++, scene_,
      watch_controller_, link_, motion, offload_, clock_, round.attack,
      faults(), *round.queue, std::move(hooks));
  round.machine->Start();
}

void UnlockSession::HandleAttemptDone() {
  AsyncRound& round = *async_round_;
  const UnlockReport report = round.machine->TakeReport();
  bool transient = false;
  if (!report.unlocked && round.retries_used < round.max_retries) {
    switch (report.outcome) {
      case UnlockOutcome::kTokenRejected:
      case UnlockOutcome::kNoPreamble:
      case UnlockOutcome::kInsufficientSnr:
      case UnlockOutcome::kStageTimeout:
      case UnlockOutcome::kLinkFlapped:
      case UnlockOutcome::kRetriesExhausted:
        transient = true;  // worth retrying
        break;
      default:
        break;  // structural refusal: stop
    }
  }
  if (!transient || !keyguard_.CanAttemptWearlock()) {
    FinishAsync(report);
    return;
  }
  // Inter-attempt pause with bounded exponential backoff, charged to
  // the session clock like any other wait (a flap outage scheduled
  // mid-failure can elapse during it, so the next attempt may find the
  // link recovered). Retry metrics land now - after the attempt's own
  // samples, before the next attempt's - and the clock advances when
  // the event fires, preserving the blocking path's ordering.
  obs::ScopedTracer install_tracer(&tracer_);
  obs::ScopedMetricsRegistry install_metrics(&metrics_);
  const sim::Millis backoff = BackoffMs(
      round.retries_used, kRetryBackoffBaseMs, kRetryBackoffMaxMs);
  WL_COUNT("protocol.retry.count");
  WL_HIST("protocol.retry.backoff_ms", backoff);
  round.queue->ScheduleAfter(backoff, [this, backoff] {
    clock_.Advance(backoff);
    ++async_round_->retries_used;
    BeginAttempt();  // replaces the finished machine, outside its frame
  });
}

void UnlockSession::FinishAsync(const UnlockReport& report) {
  AsyncRound& round = *async_round_;
  EmitRecord(report, round.retries_used);
  if (round.on_done) {
    const std::function<void(const UnlockReport&)> notify =
        std::move(round.on_done);
    notify(report);
  }
}

void UnlockSession::EmitRecord(const UnlockReport& report, int retries) {
  obs::SessionRecord r;
  r.seed = config_.seed;
  r.config = config_.label;
  r.environment = audio::ToString(config_.scene.environment);
  r.distance_m = config_.scene.distance_m;
  r.fault_spec = config_.faults.spec;
  r.attack_spec = config_.attack.spec;
  r.impairment_spec = config_.impairments.spec;
  r.activity = sensors::ToString(config_.activity);
  r.same_body = config_.same_body;
  r.outcome = ToString(report.outcome);
  r.unlocked = report.unlocked;
  r.false_accept = report.unlocked && !config_.same_body;
  r.total_ms = report.timings.total_ms();
  r.phase1_audio_ms = report.timings.phase1_audio_ms;
  r.phase1_comm_ms = report.timings.phase1_comm_ms;
  r.phase1_compute_ms = report.timings.phase1_compute_ms;
  r.phase2_audio_ms = report.timings.phase2_audio_ms;
  r.phase2_comm_ms = report.timings.phase2_comm_ms;
  r.phase2_compute_ms = report.timings.phase2_compute_ms;
  r.retries = retries;
  // Session counters are cumulative; subtracting the baseline advanced
  // at each emission scopes them to this record's attempt(s).
  r.chase_decisions = static_cast<std::int64_t>(
      metrics_.CounterValue("protocol.chase.decisions") - chase_base_);
  r.degrades = static_cast<std::int64_t>(
      metrics_.CounterValue("protocol.degrade.count") - degrade_base_);
  const std::uint64_t fault_events =
      fault_injector_ ? fault_injector_->events().size() : 0;
  r.fault_events = static_cast<std::int64_t>(fault_events - fault_base_);
  r.pilot_snr_db = report.pilot_snr_db;
  r.ebn0_db = report.ebn0_db;
  r.token_ber = report.token_ber;
  r.mode = report.mode.has_value() ? modem::ToString(*report.mode) : "";
  chase_base_ = metrics_.CounterValue("protocol.chase.decisions");
  degrade_base_ = metrics_.CounterValue("protocol.degrade.count");
  fault_base_ = fault_events;
  if (record_sink_) record_sink_(r);
}

sim::Millis SamplePin4DigitMs(sim::Rng& rng) {
  return kPin4DigitMedianMs * std::exp(rng.Gaussian(kPinJitterSigma));
}

sim::Millis SamplePin6DigitMs(sim::Rng& rng) {
  return kPin6DigitMedianMs * std::exp(rng.Gaussian(kPinJitterSigma));
}

}  // namespace wearlock::protocol
