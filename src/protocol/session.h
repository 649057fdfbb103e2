// UnlockSession: wires a complete WearLock deployment (scene + watch +
// link + OTP + keyguard + offload planner) from one declarative scenario
// description. This is the top-level entry point the examples, field
// tests and delay benchmarks drive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "audio/scene.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/trace.h"
#include "protocol/keyguard.h"
#include "protocol/offload.h"
#include "protocol/otp_service.h"
#include "protocol/phone_controller.h"
#include "protocol/watch_controller.h"
#include "sensors/motion_sim.h"
#include "sim/adversary.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/wireless.h"

namespace wearlock::protocol {

struct ScenarioConfig {
  /// Cohort label carried into every SessionRecord ("config1".."config3"
  /// for the paper's delay configurations; free-form otherwise).
  std::string label = "custom";
  audio::SceneConfig scene{};
  PhoneConfig phone{};
  /// What the user is doing during the unlock.
  sensors::Activity activity = sensors::Activity::kSitting;
  /// Devices on the same body (true) or different people (false).
  bool same_body = true;
  /// Motion-trace length (samples at 50 Hz; paper: 50-150).
  std::size_t motion_samples = 100;
  /// Control-channel transport.
  sim::Radio radio = sim::Radio::kBluetooth;
  bool wireless_connected = true;
  /// Where the DSP runs.
  ProcessingSite processing = ProcessingSite::kOffloadToPhone;
  /// The phone's device profile; the watch is always a Moto 360.
  sim::DeviceProfile phone_profile = sim::DeviceProfile::Nexus6();
  /// Shared OTP secret (defaults to the RFC 4226 test key).
  std::vector<std::uint8_t> otp_key = {'1', '2', '3', '4', '5', '6', '7',
                                       '8', '9', '0', '1', '2', '3', '4',
                                       '5', '6', '7', '8', '9', '0'};
  std::uint64_t seed = 1;
  /// Faults to inject (default: none). A non-empty plan wires a
  /// seed-forked FaultInjector into every attempt, which also arms the
  /// resilience policy (timeouts, ARQ, degrade ladder).
  sim::FaultPlan faults{};
  /// Arm the resilience policy even with an empty fault plan (the
  /// injector is then a transparent pass-through). Lets marginal-SNR
  /// deployments benefit from ARQ + chase combining without any
  /// injected faults.
  bool arm_resilience = false;
  /// The attack this scenario is subjected to (default: none). The
  /// attack agents (attack_agents.h) execute it; the session itself
  /// only carries it as a cohort axis into every SessionRecord.
  sim::AttackSpec attack{};
  /// Channel impairments to arm on the scene (default: none). The
  /// impairment RNG forks from the session seed *after* every other
  /// fork, so a clean plan replays byte-identically with or without
  /// this field existing (docs/channels.md).
  audio::ImpairmentPlan impairments{};

  /// The paper's three delay configurations (Fig. 12).
  static ScenarioConfig Config1();  ///< WiFi offload to Nexus 6 (fastest)
  static ScenarioConfig Config2();  ///< BT offload to Galaxy Nexus (slowest)
  static ScenarioConfig Config3();  ///< local processing on Moto 360
};

class UnlockSession {
 public:
  /// Receives one flattened SessionRecord per user-facing attempt
  /// (Attempt emits with retries=0; AttemptWithRetries emits once for
  /// the whole press-and-retry round, carrying the retry count).
  using RecordSink = std::function<void(const obs::SessionRecord&)>;

  explicit UnlockSession(ScenarioConfig config);
  ~UnlockSession();

  /// Install (or clear, with nullptr-like empty function) the sink the
  /// session reports finished attempts to. Emission only reads session
  /// state, so installing a sink never perturbs the deterministic
  /// clock/metrics/trace streams.
  void SetRecordSink(RecordSink sink) { record_sink_ = std::move(sink); }

  /// One power-button press.
  UnlockReport Attempt(const AttackInjection& attack = {});

  /// Press-and-retry, the way the case-study participants actually used
  /// the system: re-attempt on transient failures (token rejection, lost
  /// probe, insufficient SNR) up to `max_retries` extra rounds. Gives up
  /// immediately on structural refusals (no link, co-location filters,
  /// lockout). Returns the last attempt's report; timings accumulate on
  /// the session clock.
  UnlockReport AttemptWithRetries(int max_retries,
                                  const AttackInjection& attack = {});

  /// Event-driven press-and-retry: schedules the same protocol + retry
  /// ladder as AttemptWithRetries on `queue` and returns immediately;
  /// the queue then multiplexes this session with any number of others
  /// (docs/architecture.md). The session's tracer/metrics are installed
  /// around every slice, so interleaved sessions never mix telemetry,
  /// and the emitted SessionRecord is byte-identical to the blocking
  /// path's. `on_done` runs after the record is emitted; it must not
  /// destroy this session or start a new round on it (a machine frame
  /// is live on the stack). One round at a time per session.
  void StartAsync(sim::EventQueue& queue, int max_retries,
                  const AttackInjection& attack = {},
                  std::function<void(const UnlockReport&)> on_done = {});

  /// Fresh co-located (or not, per config) motion traces for an attempt.
  sensors::MotionPair SampleMotion();

  audio::TwoMicScene& scene() { return scene_; }
  sim::WirelessLink& link() { return link_; }
  Keyguard& keyguard() { return keyguard_; }
  OtpService& otp() { return otp_; }
  sim::VirtualClock& clock() { return clock_; }
  const ScenarioConfig& config() const { return config_; }

  /// The session's fault injector, or nullptr when the scenario's plan
  /// is empty (plain deployment). Exposes the fault trace for goldens.
  sim::FaultInjector* faults() {
    return fault_injector_ ? &*fault_injector_ : nullptr;
  }

  /// Session-local telemetry. The tracer is bound to this session's
  /// virtual clock, and both are installed as the ambient sinks for the
  /// duration of each Attempt - so two sessions never mix samples, and
  /// traces are deterministic under a fixed seed.
  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// In-flight state of one StartAsync round (defined in session.cpp;
  /// owns the current attempt's machine).
  struct AsyncRound;

  /// Start the round's next attempt: sample fresh motion, build the
  /// attempt's machine (assigning the next session id) and schedule its
  /// first slice on the round's queue.
  void BeginAttempt();
  /// Attempt finished: retry (transient outcome, budget left, keyguard
  /// willing) or finish the round. Runs inside the machine's final
  /// slice, so it never destroys the machine - a replacement is only
  /// built inside the subsequent backoff event.
  void HandleAttemptDone();
  void FinishAsync(const UnlockReport& report);
  /// Flatten a finished round into its telemetry row, advance the
  /// counter baselines and hand the row to the record sink.
  void EmitRecord(const UnlockReport& report, int retries);

  ScenarioConfig config_;
  sim::Rng rng_;
  audio::TwoMicScene scene_;
  sim::WirelessLink link_;
  Keyguard keyguard_;
  OtpService otp_;
  WatchController watch_controller_;
  OffloadPlanner offload_;
  sensors::MotionSimulator motion_sim_;
  sim::VirtualClock clock_;
  std::optional<sim::FaultInjector> fault_injector_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  RecordSink record_sink_;
  std::unique_ptr<AsyncRound> async_round_;
  /// Id of the next attempt's machine; ranging noise is salted with it.
  std::uint64_t next_session_id_ = 1;
  // Counter baselines advanced at each record emission, so cumulative
  // session counters flatten into per-record ("this call only") diffs.
  std::uint64_t chase_base_ = 0;
  std::uint64_t degrade_base_ = 0;
  std::uint64_t fault_base_ = 0;
};

/// Manual PIN-entry latency model for the Fig. 12 comparison, aligned to
/// the medians reported by Harbach et al. (SOUPS'14), the paper's [2]:
/// unlocking with a PIN takes seconds once reaction and input time are
/// counted.
inline constexpr sim::Millis kPin4DigitMedianMs = 4200.0;
inline constexpr sim::Millis kPin6DigitMedianMs = 5300.0;
/// Lognormal spread across attempts.
inline constexpr double kPinJitterSigma = 0.18;

/// One manual PIN entry: the median times a lognormal jitter draw.
sim::Millis SamplePin4DigitMs(sim::Rng& rng);
sim::Millis SamplePin6DigitMs(sim::Rng& rng);

}  // namespace wearlock::protocol
