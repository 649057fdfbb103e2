#include "protocol/attempt_machine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "dsp/spl.h"
#include "modem/coding.h"
#include "modem/drift.h"
#include "modem/snr.h"
#include "obs/instrument.h"
#include "obs/log.h"
#include "protocol/acoustic_mac.h"

namespace wearlock::protocol {
namespace {

sim::Millis AudioMs(std::size_t samples) {
  return static_cast<double>(samples) / audio::kSampleRate * 1000.0;
}

#if WEARLOCK_OBS_ENABLED
// Token BER lives in [0, 1]; bound finely near the accept thresholds.
std::vector<double> BerBounds() {
  return wearlock::obs::Histogram::LinearBounds(0.025, 0.025, 20);
}

// Attribute per-bit token errors to the sub-channels that carried them:
// within each OFDM symbol, consecutive groups of log2(M) bits map to
// the plan's data bins in ascending-frequency order (the demodulator's
// demap order).
void RecordSubchannelBer(const modem::SubchannelPlan& plan,
                         modem::Modulation mode,
                         const std::vector<std::uint8_t>& received,
                         const std::vector<std::uint8_t>& expected) {
  const std::size_t bps = modem::BitsPerSymbol(mode);
  std::vector<std::size_t> bins = plan.data;
  std::sort(bins.begin(), bins.end());
  const std::size_t bits_per_ofdm = bins.size() * bps;
  if (bits_per_ofdm == 0) return;
  const std::size_t n = std::min(received.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bin = bins[(i % bits_per_ofdm) / bps];
    const std::string prefix = "modem.subchannel." + std::to_string(bin);
    WL_COUNT(prefix + ".bits");
    if ((received[i] & 1) != (expected[i] & 1)) WL_COUNT(prefix + ".errors");
  }
}
#endif

}  // namespace

AttemptMachine::AttemptMachine(const PhoneConfig& config, OtpService* otp,
                               Keyguard* keyguard, std::uint64_t session_id,
                               audio::TwoMicScene& scene,
                               WatchController& watch, sim::WirelessLink& link,
                               sensors::MotionPair motion,
                               OffloadPlanner offload, sim::VirtualClock& clock,
                               AttackInjection attack,
                               sim::FaultInjector* faults,
                               sim::EventQueue& queue, AttemptHooks hooks)
    : config_(config),
      otp_(otp),
      keyguard_(keyguard),
      session_id_(session_id),
      scene_(scene),
      watch_(watch),
      link_(link),
      motion_(std::move(motion)),
      offload_(offload),
      clock_(clock),
      attack_(std::move(attack)),
      faults_(faults),
      queue_(queue),
      hooks_(std::move(hooks)) {}

void AttemptMachine::Start() {
  root_ = Run();  // lazy: no protocol code runs until the slice fires
  const std::coroutine_handle<> handle = root_.handle();
  pending_event_ =
      queue_.ScheduleAfter(0.0, [this, handle] { ResumeSlice(handle); });
}

void AttemptMachine::ScheduleResume(sim::Millis ms,
                                    std::coroutine_handle<> handle) {
  pending_event_ = queue_.ScheduleAfter(ms, [this, ms, handle] {
    // The session's own clock carries the session's own waits - never
    // the queue's global time, which co-tenant sessions also advance.
    clock_.Advance(ms);
    ResumeSlice(handle);
  });
}

void AttemptMachine::ResumeSlice(std::coroutine_handle<> handle) {
  {
    // Observability is ambient (thread-local); under multiplexing each
    // slice reinstalls this session's sinks so interleaved sessions
    // never mix samples.
    obs::ScopedTracer install_tracer(hooks_.tracer);
    obs::ScopedMetricsRegistry install_metrics(hooks_.metrics);
    handle.resume();
  }
  if (root_.done()) {
    // The root task's final slice: nothing is scheduled after it, so
    // this runs exactly once.
    const std::function<void()> on_done = std::move(hooks_.on_done);
    on_done();  // may schedule new work; must not destroy the machine
  }
}

UnlockReport AttemptMachine::TakeReport() {
  root_.Take();  // rethrows the protocol body's exception, if any
  return std::move(report_);
}

sim::CoTask<> AttemptMachine::Run() {
  UnlockReport& report = report_;
  const OffloadPlanner& offload = offload_;
  WL_SPAN_V(root, "session.attempt");
  WL_COUNT("protocol.attempt.calls");
  report = co_await RunInner();
  {
    WL_SPAN_V(verdict, "session.verdict");
    WL_SPAN_ATTR(verdict, "outcome", ToString(report.outcome));
    WL_SPAN_ATTR(verdict, "unlocked", report.unlocked ? 1.0 : 0.0);
  }
  WL_SPAN_ATTR(root, "outcome", ToString(report.outcome));
  WL_SPAN_ATTR(root, "offload_site", ToString(offload.site));
  WL_COUNT("protocol.attempt.outcome." + ToString(report.outcome));
  WL_HIST("protocol.attempt.total_ms", report.timings.total_ms());
  WL_HIST("protocol.phase1.audio_ms", report.timings.phase1_audio_ms);
  WL_HIST("protocol.phase1.comm_ms", report.timings.phase1_comm_ms);
  WL_HIST("protocol.phase1.compute_ms", report.timings.phase1_compute_ms);
  WL_HIST("protocol.phase2.audio_ms", report.timings.phase2_audio_ms);
  WL_HIST("protocol.phase2.comm_ms", report.timings.phase2_comm_ms);
  WL_HIST("protocol.phase2.compute_ms", report.timings.phase2_compute_ms);
  WL_HIST("protocol.attempt.watch_energy_mj", report.watch_energy_mj);
  WL_HIST("protocol.attempt.phone_energy_mj", report.phone_energy_mj);
  if (report.unlocked) {
    WL_COUNT("protocol.attempt.unlocked");
    WL_SERIES("protocol.unlock.total_ms", report.timings.total_ms());
  }
  obs::Log(obs::LogLevel::kDebug, "protocol.phone",
           "attempt finished: " + ToString(report.outcome));
}

sim::CoTask<UnlockReport> AttemptMachine::RunInner() {
  // Frame-local aliases keep the protocol body textually identical to
  // the blocking AttemptInner it was transcribed from; the coroutine
  // frame preserves every local across suspension points.
  audio::TwoMicScene& scene = scene_;
  WatchController& watch = watch_;
  sim::WirelessLink& link = link_;
  const sensors::MotionPair& motion = motion_;
  const OffloadPlanner& offload = offload_;
  sim::VirtualClock& clock = clock_;
  const AttackInjection& attack = attack_;
  sim::FaultInjector* const faults = faults_;

  UnlockReport report;
  const std::uint64_t session_id = session_id_;
  const ResilienceConfig& res = config_.resilience;
  // The ARQ / degrade machinery only engages when a fault injector is
  // wired in; campaign mode (force_transmit) stays single-shot so the
  // Table-I style raw-channel BER measurements are unaffected.
  const bool resilient = faults != nullptr && !config_.force_transmit;
  // Deterministic protocol-time accumulator: audio, communication and
  // waits - everything modeled from the seed - but NOT host-measured
  // compute, whose virtual charge varies with machine load. Budget and
  // deadline decisions run on this accumulator, so a seed's fault
  // handling replays bit-identically at any thread count (the
  // 1-vs-8-thread gate in tests/fault_matrix_test.cpp); the virtual
  // clock still carries compute for the latency reports.
  sim::Millis proto_ms = 0.0;
  auto charge = [&](sim::Millis ms) -> sim::CoTask<> {
    proto_ms += ms;
    co_await Wait(ms);
  };
  auto total_left = [&] { return res.total_deadline_ms - proto_ms; };
  // Degrade ladder state: after degrade_after_link_faults link faults,
  // processing falls back from offload to watch-local for the rest of
  // this attempt.
  OffloadPlanner effective = offload;
  int link_faults = 0;

  // --- Crowded-world hardening state (docs/channels.md) ---------------
  // Every hardening branch is gated on the scene actually having channel
  // impairments armed, so clean scenes take the exact pre-existing path
  // and consume the exact pre-existing scene draws (the PR-3/4/5/8
  // goldens pin this).
  audio::ChannelImpairments* const chan = scene.impairments();
  const ChannelHardeningConfig& hard = config_.channel;
  const bool hardened = hard.enable && chan != nullptr;
  std::optional<CarrierSenseReport> sense;  // latest, feeds reselection
  modem::DriftEstimate drift;               // latest probe-frame estimate
  double compensate_ppm = 0.0;              // warp undone on captures
  int sync_failures = 0;

  auto trace = [&](const std::string& step, const std::string& detail) {
    report.trace.push_back({step, detail, clock.now()});
  };
  auto fmt = [](double v, int prec = 2) {
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(prec);
    oss << v;
    return oss.str();
  };

  auto maybe_degrade = [&] {
    if (effective.site == ProcessingSite::kOffloadToPhone &&
        link_faults >= res.degrade_after_link_faults) {
      effective.site = ProcessingSite::kWatchLocal;
      WL_COUNT("protocol.degrade.count");
      trace("degrade", "flaky link: processing falls back to watch-local");
    }
  };

  // Bounded exponential pause between retransmissions, charged to the
  // virtual clock like every other wait.
  auto backoff_pause = [&](int attempt_idx,
                           sim::Millis& comm_ms) -> sim::CoTask<> {
    const sim::Millis backoff = res.BackoffMs(attempt_idx);
    WL_HIST("protocol.backoff_ms", backoff);
    comm_ms += backoff;
    co_await charge(backoff);
    if (faults != nullptr) faults->MaybeReconnect(link);
  };

  // The link went down mid-protocol. Wait out the scheduled outage (if
  // any) up to the stage budget; a link that stays down is a defined
  // failure, not a hang.
  auto wait_out_link = [&](sim::Millis stage_left, sim::Millis& comm_ms)
      -> sim::CoTask<std::optional<UnlockOutcome>> {
    ++link_faults;
    maybe_degrade();
    if (!faults->flap_down()) {
      WL_COUNT("protocol.link_lost");
      co_return UnlockOutcome::kLinkFlapped;
    }
    // All three bounds are durations, not absolute clock readings, so
    // the wait (and whether the link recovers within it) is a pure
    // function of the seed.
    const sim::Millis outage_left =
        std::max(0.0, faults->reconnect_at_ms() - clock.now());
    const sim::Millis wait =
        std::max(0.0, std::min({outage_left, stage_left, total_left()}));
    if (wait > 0.0) {
      WL_HIST("protocol.link_wait_ms", wait);
      comm_ms += wait;
      co_await charge(wait);
    }
    faults->MaybeReconnect(link);
    if (!link.connected()) {
      WL_COUNT("protocol.link_lost");
      co_return UnlockOutcome::kLinkFlapped;
    }
    co_return std::nullopt;
  };

  // One control message with the resilience policy applied: presumed
  // lost after message_timeout_ms, retransmitted with bounded backoff,
  // outage waits charged but not counted against the retry budget. The
  // fault-free path is byte-identical to the plain protocol.
  auto send_control = [&](const std::string& stage, sim::Millis& comm_ms)
      -> sim::CoTask<std::optional<UnlockOutcome>> {
    if (faults == nullptr) {
      const sim::Millis ms = link.SampleMessageDelay();
      comm_ms += ms;
      co_await Wait(ms);
      co_return std::nullopt;
    }
    const sim::Millis stage_budget =
        std::min(res.stage_budget_ms, total_left());
    const sim::Millis stage_start = proto_ms;
    int sends = 0;
    while (true) {
      if (proto_ms - stage_start >= stage_budget) {
        WL_COUNT("protocol.timeout.stage");
        co_return UnlockOutcome::kStageTimeout;
      }
      const sim::FaultInjector::SendResult r = faults->SendMessage(link, stage);
      if (r.status == sim::FaultInjector::SendStatus::kLinkDown) {
        if (auto fail = co_await wait_out_link(
                stage_budget - (proto_ms - stage_start), comm_ms)) {
          co_return fail;
        }
        continue;  // outage waits do not burn the retransmit budget
      }
      if (r.status == sim::FaultInjector::SendStatus::kDelivered &&
          r.delay_ms <= res.message_timeout_ms) {
        comm_ms += r.delay_ms;
        co_await charge(r.delay_ms);
        co_return std::nullopt;
      }
      // Dropped, or delay-spiked past the timeout: the sender sees only
      // silence for message_timeout_ms, then retransmits.
      ++link_faults;
      maybe_degrade();
      WL_COUNT("protocol.timeout.count");
      comm_ms += res.message_timeout_ms;
      co_await charge(res.message_timeout_ms);
      if (sends >= res.max_message_retries) {
        WL_COUNT("protocol.retries_exhausted");
        co_return UnlockOutcome::kRetriesExhausted;
      }
      WL_COUNT("protocol.retransmit.count");
      co_await backoff_pause(sends, comm_ms);
      ++sends;
    }
  };

  // One bulk transfer under faults (fault-free callers keep using
  // OffloadPlanner::Cost, which samples the link itself). A delivered
  // transfer is streamed - spikes slow it down but never time it out -
  // and its duration is returned for the offload cost accounting rather
  // than charged here.
  auto send_file = [&](const std::string& stage, std::size_t bytes,
                       sim::Millis& comm_ms, sim::Millis* transfer_ms)
      -> sim::CoTask<std::optional<UnlockOutcome>> {
    const sim::Millis stage_budget =
        std::min(res.stage_budget_ms, total_left());
    const sim::Millis stage_start = proto_ms;
    int sends = 0;
    while (true) {
      if (proto_ms - stage_start >= stage_budget) {
        WL_COUNT("protocol.timeout.stage");
        co_return UnlockOutcome::kStageTimeout;
      }
      const sim::FaultInjector::SendResult r =
          faults->SendFile(link, bytes, stage);
      if (r.status == sim::FaultInjector::SendStatus::kLinkDown) {
        if (auto fail = co_await wait_out_link(
                stage_budget - (proto_ms - stage_start), comm_ms)) {
          co_return fail;
        }
        continue;
      }
      if (r.status == sim::FaultInjector::SendStatus::kDelivered) {
        *transfer_ms = r.delay_ms;
        co_return std::nullopt;
      }
      // Transfer dropped mid-flight.
      ++link_faults;
      maybe_degrade();
      WL_COUNT("protocol.timeout.count");
      comm_ms += res.message_timeout_ms;
      co_await charge(res.message_timeout_ms);
      if (sends >= res.max_message_retries) {
        WL_COUNT("protocol.retries_exhausted");
        co_return UnlockOutcome::kRetriesExhausted;
      }
      WL_COUNT("protocol.retransmit.count");
      co_await backoff_pause(sends, comm_ms);
      ++sends;
    }
  };

  // Listen-before-talk (the acoustic MAC): sense the band through the
  // phone's own mic and defer the emission with bounded-exponential
  // backoff while a neighbor holds it. All waits are modeled time, and
  // the scene's acoustic cursor advances with them, so a re-listen sees
  // every neighbor's duty cycle progressed. Returns false when the band
  // never cleared within the attempt budget.
  auto mac_acquire = [&](const char* stage, sim::Millis& audio_ms)
      -> sim::CoTask<bool> {
    if (!hardened || !chan->has_neighbors()) co_return true;
    for (int attempt = 0; attempt <= hard.mac.max_attempts; ++attempt) {
      const std::size_t n = hard.mac.sense_window_samples;
      const auto [phone_sense, watch_sense] = scene.RecordAmbientPair(n);
      (void)watch_sense;
      const sim::Millis sense_ms = AudioMs(n);
      audio_ms += sense_ms;
      co_await charge(sense_ms);
      sense = SenseChannel(config_.frame, phone_sense,
                           hard.mac.busy_over_floor_db);
      if (!sense->busy) {
        chan->RecordEvent("mac-clear",
                          std::string(stage) + ": in-band " +
                              fmt(sense->inband_db, 1) + " dB, floor " +
                              fmt(sense->floor_db, 1) + " dB",
                          clock.now());
        co_return true;
      }
      if (attempt == hard.mac.max_attempts || total_left() <= 0.0) break;
      const sim::Millis backoff = hard.mac.BackoffMs(attempt);
      WL_COUNT("protocol.mac.defer");
      chan->RecordEvent("mac-defer",
                        std::string(stage) + ": busy, backoff " +
                            fmt(backoff, 0) + " ms",
                        clock.now());
      trace("mac-defer", std::string(stage) + " deferred " + fmt(backoff, 0) +
                             " ms: band busy");
      scene.AdvanceTimeMs(backoff);
      co_await charge(backoff);
    }
    WL_COUNT("protocol.mac.unusable");
    chan->RecordEvent("mac-unusable", stage, clock.now());
    co_return false;
  };

  if (!keyguard_->CanAttemptWearlock()) {
    report.outcome = UnlockOutcome::kLockedOut;
    co_return report;
  }
  // A flap scheduled during an earlier attempt may have elapsed during
  // the inter-attempt backoff; recover before the link check.
  if (faults != nullptr) faults->MaybeReconnect(link);
  // Filter 0: no wireless link, no WearLock (cheapest possible skip).
  {
    WL_SPAN("phase1.link_check");
    if (!link.connected()) {
      report.outcome = UnlockOutcome::kNoWirelessLink;
      trace("link-check", "no wireless link, aborting");
      co_return report;
    }
  }
  trace("link-check", "wireless link up");

  modem::AcousticModem modem(config_.frame, config_.demod);

  // --- Phase 1: channel probing -------------------------------------
  // Start message + watch ack.
  {
    WL_SPAN("phase1.rts_cts");
    if (faults == nullptr) {
      const sim::Millis rtt = link.SampleRoundTrip();
      report.timings.phase1_comm_ms += rtt;
      co_await Wait(rtt);
    } else {
      // RTS out, CTS back - each leg individually subject to faults.
      for (int leg = 0; leg < 2; ++leg) {
        if (auto fail =
                co_await send_control("rts", report.timings.phase1_comm_ms)) {
          report.outcome = *fail;
          trace("rts-cts", "control channel failed: " + ToString(*fail));
          co_return report;
        }
      }
    }
  }

  // Phone self-records a short ambient window to size the probe volume
  // (paper: "The noise level is also used to set proper speaker volume").
  const std::size_t ambient_n =
      audio::SamplesFromSeconds(config_.ambient_window_s);
  WL_SPAN_V(ambient_span, "phase1.ambient_record");
  const auto [phone_ambient_pre, watch_ambient_pre] =
      scene.RecordAmbientPair(ambient_n);
  report.timings.phase1_audio_ms += AudioMs(ambient_n);
  co_await charge(AudioMs(ambient_n));
  report.ambient_spl_db = dsp::SplOf(phone_ambient_pre);
  WL_SPAN_ATTR(ambient_span, "ambient_spl_db", report.ambient_spl_db);
  WL_SPAN_END(ambient_span);

  WL_SPAN_V(volume_span, "phase1.volume_rule");
  const double target_spl =
      modem::ProbeTxSpl(report.ambient_spl_db, config_.snr_min_db,
                        config_.secure_range_m,
                        scene.config().propagation.reference_distance_m) +
      config_.frame_papr_db;
  report.probe_volume =
      scene.config().phone_speaker.VolumeForSpl(target_spl);
  WL_SPAN_ATTR(volume_span, "probe_volume", report.probe_volume);
  WL_SPAN_END(volume_span);
  trace("volume-rule", "ambient " + fmt(report.ambient_spl_db, 1) +
                           " dB -> volume " + fmt(report.probe_volume));

  // Emit the RTS probe; both mics record. Under the resilience policy a
  // probe the watch did not hear (e.g. the capture was truncated or
  // lost) is re-emitted up to max_probe_retransmits times.
  const modem::TxFrame probe_tx = modem.MakeProbeFrame();
  std::optional<modem::ProbeAnalysis> probe;
  Phase1Report phase1;
  int probe_rounds = 0;
  while (true) {
    if (!co_await mac_acquire("probe", report.timings.phase1_audio_ms)) {
      report.outcome = UnlockOutcome::kChannelUnusable;
      trace("mac", "band never cleared for the probe: channel unusable");
      co_return report;
    }
    WL_SPAN_V(probe_tx_span, "phase1.probe_tx");
    const audio::SceneReception probe_rx =
        scene.TransmitFromPhone(probe_tx.samples, report.probe_volume);
    // A spliced channel (relay attack) substitutes what the watch hears;
    // the phone still emitted, so scene draws and the phone-side state
    // advance identically either way.
    audio::Samples watch_probe =
        attack.channel_splice
            ? attack.channel_splice(probe_tx.samples, report.probe_volume)
            : probe_rx.watch_recording;
    report.timings.phase1_audio_ms += AudioMs(watch_probe.size());
    co_await charge(AudioMs(watch_probe.size()));
    WL_SPAN_ATTR(probe_tx_span, "samples",
                 static_cast<double>(probe_tx.samples.size()));
    WL_SPAN_END(probe_tx_span);

    if (faults != nullptr) faults->MutateRecording("rts", &watch_probe);

    // The watch ships its Phase-1 data (recording + sensors).
    phase1 = watch.MakePhase1Report(session_id, std::move(watch_probe),
                                    motion.watch);

    // Probe processing runs at the offload site.
    WL_SPAN_V(probe_span, "phase1.probe_analysis");
    probe.reset();
    const sim::Millis probe_host_ms = sim::TimeHostMs(
        [&] { probe = modem.AnalyzeProbe(phase1.recording); });
    StepCost phase1_cost;
    sim::Millis transfer_ms = 0.0;  // modeled upload delay (seed-derived)
    if (faults == nullptr) {
      phase1_cost = offload.Cost(
          probe_host_ms, RecordingBytes(phase1.recording.size()), link);
    } else {
      if (effective.site == ProcessingSite::kOffloadToPhone) {
        if (auto fail = co_await send_file(
                "p1-upload", RecordingBytes(phase1.recording.size()),
                report.timings.phase1_comm_ms, &transfer_ms)) {
          maybe_degrade();
          if (effective.site == ProcessingSite::kOffloadToPhone ||
              *fail == UnlockOutcome::kStageTimeout) {
            report.outcome = *fail;
            trace("phase1-upload", "upload failed: " + ToString(*fail));
            co_return report;
          }
          // Degrade ladder: keep the analysis on the watch instead.
          trace("phase1-upload",
                "upload failed (" + ToString(*fail) +
                    "); degraded to watch-local analysis");
          transfer_ms = 0.0;
        }
      }
      phase1_cost = effective.CostWithTransfer(probe_host_ms, transfer_ms,
                                               link.radio());
    }
    report.timings.phase1_compute_ms += phase1_cost.compute_ms;
    report.timings.phase1_comm_ms += phase1_cost.transfer_ms;
    report.watch_energy_mj += phase1_cost.watch_energy_mj;
    report.phone_energy_mj += phase1_cost.phone_energy_mj;
    // Recording the probe costs the watch energy too.
    report.watch_energy_mj += sim::DeviceProfile::EnergyMj(
        AudioMs(phase1.recording.size()), offload.watch.record_power_mw);
    if (faults == nullptr) {
      co_await Wait(phase1_cost.compute_ms + phase1_cost.transfer_ms);
    } else {
      // Charge the modeled upload delay directly: phase1_cost mixes in
      // the host-measured compute probe, and modeled time may only
      // absorb seed-derived values (CostWithTransfer passes transfer_ms
      // through unchanged, so this is the same quantity).
      co_await charge(transfer_ms);
      co_await Wait(phase1_cost.compute_ms);
    }
    WL_SPAN_ATTR(probe_span, "compute_ms", phase1_cost.compute_ms);
    WL_SPAN_ATTR(probe_span, "transfer_ms", phase1_cost.transfer_ms);
    WL_SPAN_END(probe_span);

    if (probe) break;
    ++sync_failures;
    if (hardened) {
      chan->RecordEvent("sync-failure", "probe analysis found no preamble",
                        clock.now());
    }
    // A hardened receiver on an impaired channel retries sync like the
    // fault-resilient path does; past the budget it fails closed with
    // the channel verdict rather than blaming range.
    if ((!resilient && !hardened) ||
        probe_rounds >= res.max_probe_retransmits || total_left() <= 0.0) {
      if (hardened) {
        report.outcome = UnlockOutcome::kChannelUnusable;
        trace("probe-analysis",
              "no sync on the impaired channel: failing closed");
      } else {
        report.outcome = UnlockOutcome::kNoPreamble;
        trace("probe-analysis", "no preamble found in the watch recording");
      }
      co_return report;
    }
    WL_COUNT("protocol.retransmit.probe");
    trace("probe-retransmit", "no preamble heard; re-emitting the RTS probe");
    co_await backoff_pause(probe_rounds, report.timings.phase1_comm_ms);
    ++probe_rounds;
  }
  // Sync-driven drift tracking on the probe capture (modem/drift.h): the
  // preamble offset recovers the accumulated clock shift, the pilot
  // spacing the ongoing warp rate. On a detected warp the capture is run
  // through the fractional resampler and the probe analysis - pilot
  // equalizer included - re-estimated on the de-warped audio.
  if (hardened) {
    std::optional<modem::ProbeAnalysis> reprobe;
    const sim::Millis drift_host_ms = sim::TimeHostMs([&] {
      drift = modem::EstimateDrift(phase1.recording, config_.frame,
                                   scene.config().lead_in_samples, hard.drift);
      if (drift.valid && std::abs(drift.rate_ppm) >= hard.min_compensate_ppm) {
        reprobe = modem.AnalyzeProbe(
            modem::CompensateRate(phase1.recording, drift.rate_ppm));
      }
    });
    report.timings.phase1_compute_ms += drift_host_ms;
    co_await Wait(drift_host_ms);
    if (drift.valid) {
      chan->RecordEvent("drift-estimate",
                        "shift " + std::to_string(drift.shift_samples) +
                            " samples (" + fmt(drift.sro_ppm, 1) +
                            " ppm SRO), warp " + fmt(drift.rate_ppm, 0) +
                            " ppm at score " + fmt(drift.rate_score, 2),
                        clock.now());
      WL_HIST("protocol.drift.sro_ppm", drift.sro_ppm);
    }
    if (reprobe) {
      compensate_ppm = drift.rate_ppm;
      probe = reprobe;
      WL_COUNT("protocol.drift.compensated");
      chan->RecordEvent(
          "drift-compensate",
          "probe re-equalized at " + fmt(compensate_ppm, 0) + " ppm",
          clock.now());
      trace("drift-compensate", "warp " + fmt(compensate_ppm, 0) +
                                    " ppm compensated; equalizer "
                                    "re-estimated");
    }
  }

  report.preamble_score = probe->preamble_score;
  trace("probe-analysis",
        "score " + fmt(probe->preamble_score) + ", pilot SNR " +
            fmt(probe->pilot_snr_db, 1) + " dB" +
            (probe->nlos ? ", NLOS detected" : ""));
  report.nlos = probe->nlos;
  report.pilot_snr_db = probe->pilot_snr_db;
  WL_HIST_BOUNDS("protocol.pilot_snr_db",
                 ::wearlock::obs::Histogram::LinearBounds(-10.0, 2.5, 24),
                 report.pilot_snr_db);

  // Ambient-noise co-location filter (Sound-Proof style), on the
  // pre-signal windows of both sides.
  if (config_.enable_ambient_filter) {
    WL_SPAN_V(ambient_filter_span, "phase1.ambient_filter");
    report.ambient_similarity =
        AmbientSimilarity(phone_ambient_pre, watch_ambient_pre, config_.ambient);
    WL_SPAN_ATTR(ambient_filter_span, "similarity", report.ambient_similarity);
    if (report.ambient_similarity < config_.ambient.threshold) {
      report.outcome = UnlockOutcome::kAmbientMismatch;
      trace("ambient-filter",
            "similarity " + fmt(report.ambient_similarity) + " below " +
                fmt(config_.ambient.threshold) + ": not co-located");
      co_return report;
    }
    trace("ambient-filter", "similarity " + fmt(report.ambient_similarity));
  }

  // Motion filter (Algorithm 1).
  double required_ber = config_.adaptive.max_ber;
  bool skip_phase2 = false;
  if (config_.enable_sensor_filter) {
    WL_SPAN_V(motion_span, "phase1.motion_filter");
    const sensors::FilterResult motion_result = sensors::SensorBasedFilter(
        motion.phone, phase1.sensor_trace, config_.sensor_thresholds);
    report.dtw_score = motion_result.score;
    WL_SPAN_ATTR(motion_span, "dtw_score", motion_result.score);
    trace("motion-filter", "DTW score " + fmt(motion_result.score, 3));
    switch (motion_result.decision) {
      case sensors::FilterDecision::kAbort:
        report.outcome = UnlockOutcome::kMotionMismatch;
        co_return report;
      case sensors::FilterDecision::kSkipSecondPhase:
        if (config_.sensor_policy == SensorSkipPolicy::kSkipSecondPhase) {
          skip_phase2 = true;
        } else {
          required_ber = std::max(required_ber, config_.sensor_relaxed_ber);
        }
        break;
      case sensors::FilterDecision::kContinue:
        break;
    }
  }

  // NLOS handling (case study: relax required BER to 0.25, or abort).
  if (report.nlos) {
    if (config_.nlos_policy == NlosPolicy::kAbort) {
      report.outcome = UnlockOutcome::kNlosAborted;
      co_return report;
    }
    required_ber = std::max(required_ber, config_.nlos_relaxed_ber);
  }
  report.required_ber = required_ber;

  // Secure-range bound: a receiver at secure_range_m, given the volume
  // actually used, would measure this much pilot SNR; anything below it
  // is farther away. Do NOT adapt the modulation down to reach it.
  {
    WL_SPAN_V(gate_span, "phase1.range_gate");
    const double achieved_tx_spl =
        scene.config().phone_speaker.SplAtVolume(report.probe_volume);
    const double expected_at_range =
        achieved_tx_spl - config_.frame_papr_db -
        dsp::SpreadingLossDb(config_.secure_range_m,
                             scene.config().propagation.reference_distance_m) -
        report.ambient_spl_db;
    double gate = std::max(expected_at_range - config_.pilot_snr_domain_offset_db,
                           config_.min_pilot_snr_floor_db);
    if (report.nlos && config_.nlos_policy == NlosPolicy::kRelaxMaxBer) {
      gate = std::max(gate - config_.nlos_gate_relief_db,
                      config_.min_pilot_snr_floor_db);
    }
    WL_SPAN_ATTR(gate_span, "gate_db", gate);
    if (report.pilot_snr_db < gate && !config_.force_transmit) {
      report.outcome = UnlockOutcome::kInsufficientSnr;
      trace("range-gate", "pilot SNR " + fmt(report.pilot_snr_db, 1) +
                              " dB under gate " + fmt(gate, 1) +
                              ": receiver beyond secure range");
      co_return report;
    }
    trace("range-gate", "pilot SNR clears gate " + fmt(gate, 1) + " dB");
  }

  // Relay defense: acoustic distance bounding (docs/security.md). Sound
  // is slow - 1 m of air costs ~2.9 ms - so a relay's capture-transport-
  // re-emit latency inflates the round-trip estimate past the bound no
  // matter how much it amplifies. Runs before the motion fast path so a
  // wormhole cannot ride the skip-phase-2 shortcut; fails closed.
  if (config_.distance_bounding.enable) {
    WL_SPAN_V(bound_span, "phase1.distance_bounding");
    const DistanceBoundingPolicy& db = config_.distance_bounding;
    // Ranging noise draws come from a session-salted stream of their
    // own: deterministic per seed, invisible to the scene stream.
    sim::Rng ranging_rng(db.seed ^ (session_id * 0x9E3779B97F4A7C15ULL));
    const RangingResult ranging = AcousticRangeMedian(
        scene, config_.frame, report.probe_volume, ranging_rng, db.rounds,
        db.ranging, attack.ranging_extra_delay_ms,
        attack.channel_splice ? &attack.channel_splice : nullptr);
    report.ranging_distance_m = ranging.estimated_distance_m;
    // Each round's chirp exchange is real audio time (lead-in + chirp +
    // lead-out at both ends of the synchronized clock); the whole
    // exchange is one scheduled wait, charged exactly as the blocking
    // path charged it so proto_ms stays bit-identical.
    const std::size_t chirp_n = scene.config().lead_in_samples +
                                modem::MakePreamble(config_.frame).size() +
                                scene.config().lead_out_samples;
    const sim::Millis ranging_audio_ms = db.rounds * AudioMs(chirp_n);
    report.timings.phase1_audio_ms += ranging_audio_ms;
    co_await charge(ranging_audio_ms);
    WL_SPAN_ATTR(bound_span, "estimate_m", ranging.estimated_distance_m);
    WL_SPAN_ATTR(bound_span, "detected", ranging.chirp_detected ? 1.0 : 0.0);
    if (!ranging.chirp_detected || !ranging.within_bound) {
      keyguard_->ReportFailure();
      report.outcome = UnlockOutcome::kDistanceBoundViolation;
      trace("distance-bounding",
            ranging.chirp_detected
                ? "estimate " + fmt(ranging.estimated_distance_m) +
                      " m beyond bound " + fmt(db.ranging.max_distance_m) +
                      " m: relay suspected"
                : "ranging chirp not heard: relay suspected");
      co_return report;
    }
    trace("distance-bounding", "estimate " +
                                   fmt(ranging.estimated_distance_m) +
                                   " m within bound " +
                                   fmt(db.ranging.max_distance_m) + " m");
  }

  if (skip_phase2) {
    // Algorithm 1 fast path: motion similarity alone vouches for
    // co-location; skip the acoustic token round.
    keyguard_->ReportSuccess();
    report.outcome = UnlockOutcome::kUnlocked;
    report.unlocked = true;
    co_return report;
  }

  // Sub-channel selection from the probed noise ranking.
  {
    WL_SPAN_V(select_span, "phase1.subchannel_select");
    report.plan = config_.frame.plan;
    if (config_.enable_subchannel_selection) {
      std::vector<double> noise = probe->noise_power;
      // Carrier-sense reselection: a neighbor quiet during the probe's
      // own airtime still showed up in the MAC's sense window; merging
      // the per-bin sense power (element-wise max) steers the data bins
      // away from every bin any co-channel transmitter touched.
      if (hardened && sense && !sense->bin_power.empty()) {
        const std::size_t n = std::min(noise.size(), sense->bin_power.size());
        for (std::size_t i = 0; i < n; ++i) {
          noise[i] = std::max(noise[i], sense->bin_power[i]);
        }
        trace("carrier-sense", "sense spectrum merged into sub-band ranking");
      }
      report.plan = modem::SelectSubchannels(config_.frame.plan, noise);
      modem = modem.WithPlan(report.plan);
    }
    WL_SPAN_ATTR(select_span, "data_bins",
                 static_cast<double>(report.plan.data.size()));
    WL_GAUGE_SET("modem.plan.data_bins",
                 static_cast<double>(report.plan.data.size()));
  }

  // Transmission-mode decision from the probed SNR. The adaptive config's
  // max_ber follows any relaxation decided above. Under detected NLOS the
  // Fig. 5 thresholds (measured on a LOS channel) no longer hold for the
  // dense phase constellations - delay-spread ICI hits 8PSK first - so
  // the candidate set shrinks to the robust modes, matching the paper's
  // field test where every body-blocked cell ran QPSK.
  WL_SPAN_V(mode_span, "phase1.mode_select");
  modem::AdaptiveConfig adaptive = config_.adaptive;
  adaptive.max_ber = required_ber;
  if (report.nlos) {
    adaptive.modes = {modem::Modulation::kQpsk, modem::Modulation::kQask};
  }
  // Extended degrade ladder: repeated sync losses mean the channel
  // estimate cannot be trusted at dense constellations - restrict the
  // candidate set to the robust low-rate modes before adapting.
  if (hardened && sync_failures >= hard.robust_after_sync_failures) {
    adaptive.modes = {modem::Modulation::kBpsk, modem::Modulation::kQpsk};
    chan->RecordEvent("degrade-robust",
                      std::to_string(sync_failures) +
                          " sync failures: robust low-rate modes only",
                      clock.now());
    trace("degrade", "repeated sync failures: robust low-rate modes only");
  }
  auto mode =
      modem::SelectModeFromSnr(modem.spec(), report.pilot_snr_db, adaptive);
  if (!mode) {
    if (!config_.force_transmit) {
      report.outcome = UnlockOutcome::kInsufficientSnr;
      trace("mode-select", "no mode meets MaxBER " + fmt(required_ber));
      co_return report;
    }
    // Measurement campaign: transmit anyway with the measurably most
    // robust candidate (lowest required Eb/N0 at a loose bound) and let
    // the BER land where it lands.
    double best_req = 1e30;
    for (modem::Modulation candidate : adaptive.modes) {
      const double req = modem::MeasuredRequiredEbN0Db(candidate, 0.2);
      if (req < best_req) {
        best_req = req;
        mode = candidate;
      }
    }
    trace("mode-select", "forced " + ToString(*mode) + " (campaign mode)");
  }
  report.mode = *mode;
  trace("mode-select", ToString(*mode) + " at MaxBER " + fmt(required_ber));
  report.ebn0_db = modem::EbN0Db(modem.spec(), *mode, report.pilot_snr_db);
  WL_SPAN_ATTR(mode_span, "mode", ToString(*mode));
  WL_SPAN_ATTR(mode_span, "required_ber", required_ber);
  WL_SPAN_ATTR(mode_span, "ebn0_db", report.ebn0_db);
  WL_SPAN_END(mode_span);

  // Ship the Phase-2 configuration to the watch over the control channel.
  Phase2Config phase2_config;
  phase2_config.session_id = session_id;
  phase2_config.plan = report.plan;
  phase2_config.modulation = *mode;
  phase2_config.payload_bits = 32;
  {
    WL_SPAN("phase2.config_send");
    watch.ApplyPhase2Config(phase2_config);
    if (auto fail =
            co_await send_control("p2-config", report.timings.phase2_comm_ms)) {
      report.outcome = *fail;
      trace("phase2-config", "control channel failed: " + ToString(*fail));
      co_return report;
    }
  }

  // --- Phase 2: OFDM-modulated OTP ------------------------------------
  WL_SPAN_V(otp_span, "phase2.otp_generate");
  const std::vector<std::uint8_t> token_bits = otp_->NextTokenBits();
  WL_SPAN_END(otp_span);

  // ARQ over the acoustic hop: the SAME token frame is re-emitted up to
  // max_phase2_retransmits times, and the receiver chase-combines the
  // per-bit LLRs of every copy before each decision, so late rounds
  // decode at the summed SNR instead of starting blind
  // (docs/robustness.md). Fault-free sessions run exactly one round.
  const modem::TxFrame data_tx = modem.Modulate(*mode, token_bits);
  const bool want_soft = resilient && res.enable_chase_combining;
  modem::SoftCombiner combiner;
  int p2_round = 0;
  while (true) {
    if (!co_await mac_acquire("phase2", report.timings.phase2_audio_ms)) {
      report.outcome = UnlockOutcome::kChannelUnusable;
      trace("mac", "band never cleared for phase 2: channel unusable");
      co_return report;
    }
    WL_SPAN_V(data_tx_span, "phase2.data_tx");
    const audio::SceneReception data_rx =
        scene.TransmitFromPhone(data_tx.samples, report.probe_volume);

    // Optional eavesdropper tap on the first emission.
    if (p2_round == 0 && attack.eavesdrop_distance_m) {
      report.eavesdropped_recording = scene.RecordAtDistance(
          data_tx.samples, report.probe_volume, *attack.eavesdrop_distance_m,
          audio::PropagationSpec::IndoorLos(), attack.eavesdrop_gain_db);
    }

    // Acoustic-path manipulation, in attacker-capability order: a live
    // splice owns the whole path (relay), a replayed capture substitutes
    // it wholesale, and co-channel interference adds on top of whatever
    // the watch hears. Substitutions apply to every ARQ round - a
    // retransmission must not rescue an attacked session.
    audio::Samples phase2_recording;
    if (attack.channel_splice) {
      phase2_recording =
          attack.channel_splice(data_tx.samples, report.probe_volume);
    } else if (attack.replayed_phase2_recording) {
      phase2_recording = *attack.replayed_phase2_recording;
    } else {
      phase2_recording = data_rx.watch_recording;
    }
    if (attack.phase2_interference) {
      audio::MixInto(phase2_recording, *attack.phase2_interference);
    }
    const sim::Millis round_audio_ms = AudioMs(phase2_recording.size());
    report.timings.phase2_audio_ms += round_audio_ms;
    co_await charge(round_audio_ms);
    WL_SPAN_ATTR(data_tx_span, "samples",
                 static_cast<double>(data_tx.samples.size()));
    WL_SPAN_END(data_tx_span);
    report.timings.phase2_audio_ms += attack.extra_acoustic_delay_ms;
    co_await charge(attack.extra_acoustic_delay_ms);

    // Timing-window replay defense, per round: this round's acoustic
    // exchange cannot take longer than frame duration + stack slack.
    // Fails closed immediately - no retransmission after a violation.
    {
      WL_SPAN("phase2.timing_gate");
      const sim::Millis observed_audio_ms =
          round_audio_ms + attack.extra_acoustic_delay_ms;
      if (observed_audio_ms > round_audio_ms + config_.timing_slack_ms) {
        keyguard_->ReportFailure();
        report.outcome = UnlockOutcome::kTimingViolation;
        co_return report;
      }
    }

    if (faults != nullptr) faults->MutateRecording("p2-data", &phase2_recording);

    // Timing-drift compensation carried over from the probe: the same
    // warp rate holds for this capture (one walker, one clock pair), so
    // the receiver resamples before demodulating.
    if (hardened && compensate_ppm != 0.0) {
      const sim::Millis comp_host_ms = sim::TimeHostMs([&] {
        phase2_recording =
            modem::CompensateRate(phase2_recording, compensate_ppm);
      });
      report.timings.phase2_compute_ms += comp_host_ms;
      co_await Wait(comp_host_ms);
    }

    // Demodulation at the offload site (post-degrade-ladder site).
    WL_SPAN_V(demod_span, "phase2.demod");
    const bool watch_local = effective.site == ProcessingSite::kWatchLocal;
    WL_SPAN_ATTR(demod_span, "watch_local", watch_local ? 1.0 : 0.0);
    sim::Millis watch_host_ms = 0.0;
    const Phase2Report phase2 = watch.MakePhase2Report(
        session_id, std::move(phase2_recording), phase2_config, watch_local,
        &watch_host_ms, want_soft);

    std::vector<std::uint8_t> bits;
    std::vector<double> round_llrs;
    if (watch_local) {
      bits = phase2.demodulated_bits;
      round_llrs = phase2.demodulated_llrs;
      const sim::Millis t = offload.watch.ScaleCompute(watch_host_ms);
      report.timings.phase2_compute_ms += t;
      report.watch_energy_mj +=
          sim::DeviceProfile::EnergyMj(t, offload.watch.compute_power_mw);
      // Result bits travel back as a small message.
      if (faults == nullptr) {
        const sim::Millis result_ms = link.SampleMessageDelay();
        report.timings.phase2_comm_ms += result_ms;
        co_await Wait(t + result_ms);
      } else {
        co_await Wait(t);
        if (auto fail = co_await send_control("p2-result",
                                              report.timings.phase2_comm_ms)) {
          report.outcome = *fail;
          trace("phase2-result", "control channel failed: " + ToString(*fail));
          co_return report;
        }
      }
    } else {
      std::optional<modem::DemodResult> demod;
      std::optional<std::vector<double>> soft;
      sim::Millis transfer_ms = 0.0;
      bool upload_ok = true;
      if (faults != nullptr) {
        if (auto fail = co_await send_file(
                "p2-upload", RecordingBytes(phase2.recording.size()),
                report.timings.phase2_comm_ms, &transfer_ms)) {
          maybe_degrade();
          if (effective.site == ProcessingSite::kOffloadToPhone ||
              *fail == UnlockOutcome::kStageTimeout) {
            report.outcome = *fail;
            trace("phase2-upload", "upload failed: " + ToString(*fail));
            co_return report;
          }
          // Degraded mid-phase: this round's copy is lost; the next
          // round demodulates on the watch.
          trace("phase2-upload", "upload failed (" + ToString(*fail) +
                                     "); degraded to watch-local demod");
          upload_ok = false;
          transfer_ms = 0.0;
        }
      }
      const sim::Millis host_ms = sim::TimeHostMs([&] {
        if (upload_ok) {
          demod = modem.Demodulate(phase2.recording, *mode,
                                   phase2_config.payload_bits);
          if (want_soft) {
            soft = modem.DemodulateSoft(phase2.recording, *mode,
                                        phase2_config.payload_bits);
          }
        }
      });
      const StepCost cost =
          faults == nullptr
              ? offload.Cost(host_ms, RecordingBytes(phase2.recording.size()),
                             link)
              : effective.CostWithTransfer(host_ms, transfer_ms, link.radio());
      report.timings.phase2_compute_ms += cost.compute_ms;
      report.timings.phase2_comm_ms += cost.transfer_ms;
      report.watch_energy_mj += cost.watch_energy_mj;
      report.phone_energy_mj += cost.phone_energy_mj;
      if (demod) bits = demod->bits;
      if (soft) round_llrs = *soft;
      if (faults == nullptr) {
        co_await Wait(cost.compute_ms + cost.transfer_ms);
      } else {
        // As in phase 1: charge the modeled transfer delay, not the
        // cost struct that also carries host-measured compute.
        co_await charge(transfer_ms);
        co_await Wait(cost.compute_ms);
      }
    }
    report.watch_energy_mj += sim::DeviceProfile::EnergyMj(
        AudioMs(data_rx.watch_recording.size()), offload.watch.record_power_mw);
    WL_SPAN_END(demod_span);

    // Chase combining: fold this round's soft output into the running
    // LLR sum; from the second copy on, the combined LLRs (not this
    // round's alone) drive the hard decision.
    if (want_soft && round_llrs.size() == phase2_config.payload_bits &&
        (combiner.empty() ||
         round_llrs.size() == combiner.combined().size())) {
      combiner.Add(round_llrs);
      if (combiner.rounds() > 1) {
        bits = combiner.HardBits();
        WL_COUNT("protocol.chase.decisions");
      }
    }

    WL_SPAN_V(validate_span, "phase2.token_validate");
    TokenValidation validation;
    if (bits.size() == phase2_config.payload_bits) {
      // Token validation: BER against this attempt's live token (only
      // acceptance burns it, so re-validating across ARQ rounds is
      // safe).
      validation = otp_->ValidateBits(bits, required_ber);
      report.token_ber = validation.ber;
      WL_SPAN_ATTR(validate_span, "token_ber", validation.ber);
      WL_SPAN_ATTR(validate_span, "accepted", validation.accepted ? 1.0 : 0.0);
#if WEARLOCK_OBS_ENABLED
      WL_HIST_BOUNDS("protocol.token_ber", BerBounds(), validation.ber);
      RecordSubchannelBer(report.plan, *mode, bits, validation.expected_bits);
#endif
      trace("token-validate",
            "BER " + fmt(validation.ber, 3) + " vs bound " +
                fmt(required_ber) +
                (validation.accepted ? ": accepted" : ": rejected"));
    }
    if (validation.accepted) {
      keyguard_->ReportSuccess();
      report.outcome = UnlockOutcome::kUnlocked;
      report.unlocked = true;
      co_return report;
    }
    // Failed round. One keyguard strike per *attempt*, charged at final
    // failure only - in-protocol retransmissions are not user mistakes.
    const bool synced = bits.size() == phase2_config.payload_bits;
    if (!synced) {
      ++sync_failures;
      if (hardened) {
        chan->RecordEvent("sync-failure", "phase-2 frame did not demodulate",
                          clock.now());
      }
    }
    if ((!resilient && !hardened) ||
        p2_round >= res.max_phase2_retransmits || total_left() <= 0.0) {
      if (hardened && !synced) {
        // The channel, not the token, is at fault: fail closed with the
        // channel verdict and no strike (an environmental condition, not
        // a user mistake).
        report.outcome = UnlockOutcome::kChannelUnusable;
        trace("phase2", "no frame sync on the impaired channel: failing closed");
        co_return report;
      }
      keyguard_->ReportFailure();
      report.outcome = UnlockOutcome::kTokenRejected;
      co_return report;
    }
    WL_COUNT("protocol.retransmit.phase2");
    trace("phase2-retransmit",
          "token rejected; retransmitting for chase combining (round " +
              std::to_string(p2_round + 2) + ")");
    co_await backoff_pause(p2_round, report.timings.phase2_comm_ms);
    ++p2_round;
  }
}

}  // namespace wearlock::protocol
