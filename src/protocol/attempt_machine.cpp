#include "protocol/attempt_machine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "dsp/spl.h"
#include "modem/coding.h"
#include "modem/drift.h"
#include "modem/snr.h"
#include "obs/instrument.h"
#include "obs/log.h"
#include "protocol/ambient.h"
#include "sensors/filter.h"

namespace wearlock::protocol {
namespace {

sim::Millis AudioMs(std::size_t samples) {
  return static_cast<double>(samples) / audio::kSampleRate * 1000.0;
}

std::string Fmt(double v, int prec = 2) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(prec);
  oss << v;
  return oss.str();
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
      hooks_(std::move(hooks)),
      resilient_(faults != nullptr && !config.force_transmit),
      chan_(scene.impairments()),
      hardened_(config.enable_channel_hardening && chan_ != nullptr),
      effective_(offload) {}

void AttemptMachine::Start() {
  root_ = Run();  // lazy: no protocol code runs until the slice fires
  const std::coroutine_handle<> handle = root_.handle();
  queue_.ScheduleAfter(0.0, [this, handle] { ResumeSlice(handle); });
}

void AttemptMachine::ScheduleResume(sim::Millis ms,
                                    std::coroutine_handle<> handle) {
  queue_.ScheduleAfter(ms, [this, ms, handle] {
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
  WL_SPAN_V(root, "session.attempt");
  WL_COUNT("protocol.attempt.calls");
  co_await RunInner();
  const UnlockReport& report = report_;
  {
    WL_SPAN_V(verdict, "session.verdict");
    WL_SPAN_ATTR(verdict, "outcome", ToString(report.outcome));
    WL_SPAN_ATTR(verdict, "unlocked", report.unlocked ? 1.0 : 0.0);
  }
  WL_SPAN_ATTR(root, "outcome", ToString(report.outcome));
  WL_SPAN_ATTR(root, "offload_site", ToString(offload_.site));
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

sim::CoTask<> AttemptMachine::RunInner() {
  std::optional<UnlockOutcome> outcome = co_await RunConnect();
  if (!outcome) outcome = co_await RunProbe();
  if (!outcome) outcome = RunFilters();
  if (!outcome) outcome = co_await RunRanging();
  if (!outcome) outcome = co_await RunAdapt();
  if (!outcome) outcome = co_await RunPhase2();
  report_.outcome = *outcome;
  report_.unlocked = *outcome == UnlockOutcome::kUnlocked;
  // A finished machine stays parked in its session until the next
  // press; only the report outlives the verdict.
  modem_.reset();
  phase1_ = {};
  phone_ambient_pre_ = {};
  watch_ambient_pre_ = {};
}

// --- Stages -----------------------------------------------------------

AttemptMachine::Step AttemptMachine::RunConnect() {
  if (!keyguard_->CanAttemptWearlock()) co_return UnlockOutcome::kLockedOut;
  // A flap scheduled during an earlier attempt may have elapsed during
  // the inter-attempt backoff; recover before the link check.
  if (faults_ != nullptr) faults_->MaybeReconnect(link_);
  // Filter 0: no wireless link, no WearLock (cheapest possible skip).
  {
    WL_SPAN("phase1.link_check");
    if (!link_.connected()) {
      Trace("link-check", "no wireless link, aborting");
      co_return UnlockOutcome::kNoWirelessLink;
    }
  }
  Trace("link-check", "wireless link up");

  modem_.emplace(config_.frame);

  // --- Phase 1: channel probing -------------------------------------
  // Start message + watch ack: RTS out, CTS back.
  WL_SPAN("phase1.rts_cts");
  for (int leg = 0; leg < 2; ++leg) {
    if (auto fail =
            co_await SendControl("rts", report_.timings.phase1_comm_ms)) {
      Trace("rts-cts", "control channel failed: " + ToString(*fail));
      co_return fail;
    }
  }
  co_return std::nullopt;
}

AttemptMachine::Step AttemptMachine::RunProbe() {
  // Phone self-records a short ambient window to size the probe volume
  // (paper: "The noise level is also used to set proper speaker volume").
  const std::size_t ambient_n =
      audio::SamplesFromSeconds(PhoneConfig::ambient_window_s);
  WL_SPAN_V(ambient_span, "phase1.ambient_record");
  std::tie(phone_ambient_pre_, watch_ambient_pre_) =
      scene_.RecordAmbientPair(ambient_n);
  report_.timings.phase1_audio_ms += AudioMs(ambient_n);
  co_await Charge(AudioMs(ambient_n));
  report_.ambient_spl_db = dsp::SplOf(phone_ambient_pre_);
  WL_SPAN_ATTR(ambient_span, "ambient_spl_db", report_.ambient_spl_db);
  WL_SPAN_END(ambient_span);

  WL_SPAN_V(volume_span, "phase1.volume_rule");
  const double target_spl =
      modem::ProbeTxSpl(report_.ambient_spl_db, kSnrMinDb, kSecureRangeM,
                        audio::kReferenceDistanceM) +
      kFramePaprDb;
  report_.probe_volume =
      scene_.config().phone_speaker.VolumeForSpl(target_spl);
  WL_SPAN_ATTR(volume_span, "probe_volume", report_.probe_volume);
  WL_SPAN_END(volume_span);
  Trace("volume-rule", "ambient " + Fmt(report_.ambient_spl_db, 1) +
                           " dB -> volume " + Fmt(report_.probe_volume));

  // Emit the RTS probe; both mics record. Under the resilience policy a
  // probe the watch did not hear (e.g. the capture was truncated or
  // lost) is re-emitted up to kMaxProbeRetransmits times.
  const modem::TxFrame probe_tx = modem_->MakeProbeFrame();
  for (int round = 0;; ++round) {
    if (!co_await MacAcquire("probe", report_.timings.phase1_audio_ms)) {
      Trace("mac", "band never cleared for the probe: channel unusable");
      co_return UnlockOutcome::kChannelUnusable;
    }
    WL_SPAN_V(probe_tx_span, "phase1.probe_tx");
    const audio::SceneReception probe_rx =
        scene_.TransmitFromPhone(probe_tx.samples, report_.probe_volume);
    // A spliced channel (relay attack) substitutes what the watch hears;
    // the phone still emitted, so scene draws and the phone-side state
    // advance identically either way.
    audio::Samples watch_probe =
        attack_.channel_splice
            ? attack_.channel_splice(probe_tx.samples, report_.probe_volume)
            : probe_rx.watch_recording;
    report_.timings.phase1_audio_ms += AudioMs(watch_probe.size());
    co_await Charge(AudioMs(watch_probe.size()));
    WL_SPAN_ATTR(probe_tx_span, "samples",
                 static_cast<double>(probe_tx.samples.size()));
    WL_SPAN_END(probe_tx_span);

    if (faults_ != nullptr) faults_->MutateRecording("rts", &watch_probe);

    // The watch ships its Phase-1 data (recording + sensors).
    phase1_ = watch_.MakePhase1Report(session_id_, std::move(watch_probe),
                                      motion_.watch);

    // Probe processing runs at the offload site.
    WL_SPAN_V(probe_span, "phase1.probe_analysis");
    probe_ = modem_->AnalyzeProbe(phase1_.recording);
    sim::Millis transfer_ms = 0.0;  // modeled upload delay (seed-derived)
    if (effective_.site == ProcessingSite::kOffloadToPhone) {
      bool uploaded = true;  // lost after a degrade: analysis stays local
      if (auto fail = co_await Upload(
              "p1-upload", "phase1-upload", "analysis",
              RecordingBytes(phase1_.recording.size()),
              report_.timings.phase1_comm_ms, &transfer_ms, &uploaded)) {
        co_return fail;
      }
    }
    [[maybe_unused]] const StepCost cost =
        co_await ChargeCost(transfer_ms, report_.timings.phase1_compute_ms,
                            report_.timings.phase1_comm_ms);
    // Recording the probe costs the watch energy too.
    report_.watch_energy_mj += sim::DeviceProfile::EnergyMj(
        AudioMs(phase1_.recording.size()), offload_.watch.record_power_mw);
    WL_SPAN_ATTR(probe_span, "compute_ms", cost.compute_ms);
    WL_SPAN_ATTR(probe_span, "transfer_ms", cost.transfer_ms);
    WL_SPAN_END(probe_span);

    if (probe_) break;
    ++sync_failures_;
    if (hardened_) {
      chan_->RecordEvent("sync-failure", "probe analysis found no preamble",
                         clock_.now());
    }
    // A hardened receiver on an impaired channel retries sync like the
    // fault-resilient path does; past the budget it fails closed with
    // the channel verdict rather than blaming range.
    if ((!resilient_ && !hardened_) || round >= kMaxProbeRetransmits ||
        TotalLeft() <= 0.0) {
      if (hardened_) {
        Trace("probe-analysis",
              "no sync on the impaired channel: failing closed");
        co_return UnlockOutcome::kChannelUnusable;
      }
      Trace("probe-analysis", "no preamble found in the watch recording");
      co_return UnlockOutcome::kNoPreamble;
    }
    WL_COUNT("protocol.retransmit.probe");
    Trace("probe-retransmit", "no preamble heard; re-emitting the RTS probe");
    co_await BackoffPause(round, report_.timings.phase1_comm_ms);
  }
  if (hardened_) co_await TrackDrift();

  report_.preamble_score = probe_->preamble_score;
  Trace("probe-analysis", "score " + Fmt(probe_->preamble_score) +
                              ", pilot SNR " + Fmt(probe_->pilot_snr_db, 1) +
                              " dB" + (probe_->nlos ? ", NLOS detected" : ""));
  report_.nlos = probe_->nlos;
  report_.pilot_snr_db = probe_->pilot_snr_db;
  WL_HIST("protocol.pilot_snr_db", report_.pilot_snr_db);
  co_return std::nullopt;
}

// Sync-driven drift tracking on the probe capture (modem/drift.h): the
// preamble offset recovers the accumulated clock shift, the pilot
// spacing the ongoing warp rate. On a detected warp the capture is run
// through the fractional resampler and the probe analysis - pilot
// equalizer included - re-estimated on the de-warped audio.
sim::CoTask<> AttemptMachine::TrackDrift() {
  const modem::DriftEstimate drift = modem::EstimateDrift(
      phase1_.recording, config_.frame, audio::kLeadInSamples);
  std::optional<modem::ProbeAnalysis> reprobe;
  if (drift.valid && std::abs(drift.rate_ppm) >= kMinCompensatePpm) {
    reprobe = modem_->AnalyzeProbe(
        modem::CompensateRate(phase1_.recording, drift.rate_ppm));
  }
  // One DSP step, charged without the device scale (unlike ChargeCost).
  report_.timings.phase1_compute_ms += kDspStepHostMs;
  co_await Wait(kDspStepHostMs);
  if (drift.valid) {
    chan_->RecordEvent("drift-estimate",
                       "shift " + std::to_string(drift.shift_samples) +
                           " samples (" + Fmt(drift.sro_ppm, 1) +
                           " ppm SRO), warp " + Fmt(drift.rate_ppm, 0) +
                           " ppm at score " + Fmt(drift.rate_score, 2),
                       clock_.now());
    WL_HIST("protocol.drift.sro_ppm", drift.sro_ppm);
  }
  if (reprobe) {
    compensate_ppm_ = drift.rate_ppm;
    probe_ = reprobe;
    WL_COUNT("protocol.drift.compensated");
    chan_->RecordEvent(
        "drift-compensate",
        "probe re-equalized at " + Fmt(compensate_ppm_, 0) + " ppm",
        clock_.now());
    Trace("drift-compensate", "warp " + Fmt(compensate_ppm_, 0) +
                                  " ppm compensated; equalizer "
                                  "re-estimated");
  }
}

std::optional<UnlockOutcome> AttemptMachine::RunFilters() {
  // Ambient-noise co-location filter (Sound-Proof style), on the
  // pre-signal windows of both sides.
  {
    WL_SPAN_V(ambient_filter_span, "phase1.ambient_filter");
    report_.ambient_similarity =
        AmbientSimilarity(phone_ambient_pre_, watch_ambient_pre_);
    WL_SPAN_ATTR(ambient_filter_span, "similarity",
                 report_.ambient_similarity);
    if (report_.ambient_similarity < kAmbientSimilarityThreshold) {
      Trace("ambient-filter",
            "similarity " + Fmt(report_.ambient_similarity) + " below " +
                Fmt(kAmbientSimilarityThreshold) + ": not co-located");
      return UnlockOutcome::kAmbientMismatch;
    }
    Trace("ambient-filter", "similarity " + Fmt(report_.ambient_similarity));
  }

  // Motion filter (Algorithm 1).
  double required_ber = modem::kMaxBer;
  if (config_.enable_sensor_filter) {
    WL_SPAN_V(motion_span, "phase1.motion_filter");
    const sensors::FilterResult motion_result =
        sensors::SensorBasedFilter(motion_.phone, phase1_.sensor_trace);
    report_.dtw_score = motion_result.score;
    WL_SPAN_ATTR(motion_span, "dtw_score", motion_result.score);
    Trace("motion-filter", "DTW score " + Fmt(motion_result.score, 3));
    switch (motion_result.decision) {
      case sensors::FilterDecision::kAbort:
        return UnlockOutcome::kMotionMismatch;
      case sensors::FilterDecision::kSkipSecondPhase:
        if (config_.sensor_policy == SensorSkipPolicy::kSkipSecondPhase) {
          skip_phase2_ = true;
        } else {
          required_ber = std::max(required_ber, kSensorRelaxedBer);
        }
        break;
      case sensors::FilterDecision::kContinue:
        break;
    }
  }

  // NLOS handling (case study: relax required BER to 0.25, or abort).
  if (report_.nlos) {
    if (config_.nlos_policy == NlosPolicy::kAbort) {
      return UnlockOutcome::kNlosAborted;
    }
    required_ber = std::max(required_ber, kNlosRelaxedBer);
  }
  report_.required_ber = required_ber;

  // Secure-range bound: a receiver at kSecureRangeM, given the volume
  // actually used, would measure this much pilot SNR; anything below it
  // is farther away. Do NOT adapt the modulation down to reach it.
  WL_SPAN_V(gate_span, "phase1.range_gate");
  const double achieved_tx_spl =
      scene_.config().phone_speaker.SplAtVolume(report_.probe_volume);
  const double expected_at_range =
      achieved_tx_spl - kFramePaprDb -
      dsp::SpreadingLossDb(kSecureRangeM, audio::kReferenceDistanceM) -
      report_.ambient_spl_db;
  double gate = std::max(expected_at_range - kPilotSnrDomainOffsetDb,
                         kMinPilotSnrFloorDb);
  if (report_.nlos && config_.nlos_policy == NlosPolicy::kRelaxMaxBer) {
    gate = std::max(gate - kNlosGateReliefDb, kMinPilotSnrFloorDb);
  }
  WL_SPAN_ATTR(gate_span, "gate_db", gate);
  if (report_.pilot_snr_db < gate && !config_.force_transmit) {
    Trace("range-gate", "pilot SNR " + Fmt(report_.pilot_snr_db, 1) +
                            " dB under gate " + Fmt(gate, 1) +
                            ": receiver beyond secure range");
    return UnlockOutcome::kInsufficientSnr;
  }
  Trace("range-gate", "pilot SNR clears gate " + Fmt(gate, 1) + " dB");
  return std::nullopt;
}

AttemptMachine::Step AttemptMachine::RunRanging() {
  // Relay defense: acoustic distance bounding (docs/security.md). Sound
  // is slow - 1 m of air costs ~2.9 ms - so a relay's capture-transport-
  // re-emit latency inflates the round-trip estimate past the bound no
  // matter how much it amplifies. Runs before the motion fast path so a
  // wormhole cannot ride the skip-phase-2 shortcut; fails closed.
  if (config_.enable_distance_bounding) {
    WL_SPAN_V(bound_span, "phase1.distance_bounding");
    // Ranging noise draws come from a session-salted stream of their
    // own: deterministic per seed, invisible to the scene stream.
    sim::Rng ranging_rng(kRangingSeed ^ (session_id_ * 0x9E3779B97F4A7C15ULL));
    const RangingResult ranging = AcousticRangeMedian(
        scene_, config_.frame, report_.probe_volume, ranging_rng,
        kRangingRounds, attack_.ranging_extra_delay_ms,
        attack_.channel_splice ? &attack_.channel_splice : nullptr);
    report_.ranging_distance_m = ranging.estimated_distance_m;
    // Each round's chirp exchange is real audio time (lead-in + chirp +
    // lead-out at both ends of the synchronized clock); the whole
    // exchange is one scheduled wait.
    const std::size_t chirp_n = audio::kLeadInSamples +
                                modem::MakePreamble(config_.frame).size() +
                                audio::kSceneLeadOutSamples;
    const sim::Millis ranging_audio_ms = kRangingRounds * AudioMs(chirp_n);
    report_.timings.phase1_audio_ms += ranging_audio_ms;
    co_await Charge(ranging_audio_ms);
    WL_SPAN_ATTR(bound_span, "estimate_m", ranging.estimated_distance_m);
    WL_SPAN_ATTR(bound_span, "detected", ranging.chirp_detected ? 1.0 : 0.0);
    if (!ranging.chirp_detected || !ranging.within_bound) {
      keyguard_->ReportFailure();
      Trace("distance-bounding",
            ranging.chirp_detected
                ? "estimate " + Fmt(ranging.estimated_distance_m) +
                      " m beyond bound " + Fmt(kMaxRangingDistanceM) +
                      " m: relay suspected"
                : "ranging chirp not heard: relay suspected");
      co_return UnlockOutcome::kDistanceBoundViolation;
    }
    Trace("distance-bounding", "estimate " +
                                   Fmt(ranging.estimated_distance_m) +
                                   " m within bound " +
                                   Fmt(kMaxRangingDistanceM) + " m");
  }

  if (skip_phase2_) {
    // Algorithm 1 fast path: motion similarity alone vouches for
    // co-location; skip the acoustic token round.
    keyguard_->ReportSuccess();
    co_return UnlockOutcome::kUnlocked;
  }
  co_return std::nullopt;
}

AttemptMachine::Step AttemptMachine::RunAdapt() {
  // Sub-channel selection from the probed noise ranking.
  {
    WL_SPAN_V(select_span, "phase1.subchannel_select");
    std::vector<double> noise = probe_->noise_power;
    // Carrier-sense reselection: a neighbor quiet during the probe's
    // own airtime still showed up in the MAC's sense window; merging
    // the per-bin sense power (element-wise max) steers the data bins
    // away from every bin any co-channel transmitter touched.
    if (hardened_ && sense_ && !sense_->bin_power.empty()) {
      const std::size_t n = std::min(noise.size(), sense_->bin_power.size());
      for (std::size_t i = 0; i < n; ++i) {
        noise[i] = std::max(noise[i], sense_->bin_power[i]);
      }
      Trace("carrier-sense", "sense spectrum merged into sub-band ranking");
    }
    report_.plan = modem::SelectSubchannels(config_.frame.plan, noise);
    *modem_ = modem_->WithPlan(report_.plan);
    WL_SPAN_ATTR(select_span, "data_bins",
                 static_cast<double>(report_.plan.data.size()));
    WL_GAUGE_SET("modem.plan.data_bins",
                 static_cast<double>(report_.plan.data.size()));
  }

  // Transmission-mode decision from the probed SNR. The adaptive config's
  // max_ber follows any relaxation decided above. Under detected NLOS the
  // Fig. 5 thresholds (measured on a LOS channel) no longer hold for the
  // dense phase constellations - delay-spread ICI hits 8PSK first - so
  // the candidate set shrinks to the robust modes, matching the paper's
  // field test where every body-blocked cell ran QPSK.
  WL_SPAN_V(mode_span, "phase1.mode_select");
  modem::AdaptiveConfig adaptive;
  adaptive.max_ber = report_.required_ber;
  if (report_.nlos) {
    adaptive.modes = {modem::Modulation::kQpsk, modem::Modulation::kQask};
  }
  // Extended degrade ladder: repeated sync losses mean the channel
  // estimate cannot be trusted at dense constellations - restrict the
  // candidate set to the robust low-rate modes before adapting.
  if (hardened_ && sync_failures_ >= kRobustAfterSyncFailures) {
    adaptive.modes = {modem::Modulation::kBpsk, modem::Modulation::kQpsk};
    chan_->RecordEvent("degrade-robust",
                       std::to_string(sync_failures_) +
                           " sync failures: robust low-rate modes only",
                       clock_.now());
    Trace("degrade", "repeated sync failures: robust low-rate modes only");
  }
  report_.mode = modem::SelectModeFromSnr(modem_->spec(),
                                          report_.pilot_snr_db, adaptive);
  if (!report_.mode) {
    if (!config_.force_transmit) {
      Trace("mode-select", "no mode meets MaxBER " + Fmt(report_.required_ber));
      co_return UnlockOutcome::kInsufficientSnr;
    }
    // Measurement campaign: transmit anyway with the measurably most
    // robust candidate (lowest required Eb/N0 at a loose bound) and let
    // the BER land where it lands.
    double best_req = 1e30;
    for (modem::Modulation candidate : adaptive.modes) {
      const double req = modem::MeasuredRequiredEbN0Db(candidate, 0.2);
      if (req < best_req) {
        best_req = req;
        report_.mode = candidate;
      }
    }
    Trace("mode-select", "forced " + ToString(*report_.mode) +
                             " (campaign mode)");
  }
  const modem::Modulation mode = *report_.mode;
  Trace("mode-select",
        ToString(mode) + " at MaxBER " + Fmt(report_.required_ber));
  report_.ebn0_db = modem::EbN0Db(modem_->spec(), mode, report_.pilot_snr_db);
  WL_SPAN_ATTR(mode_span, "mode", ToString(mode));
  WL_SPAN_ATTR(mode_span, "required_ber", report_.required_ber);
  WL_SPAN_ATTR(mode_span, "ebn0_db", report_.ebn0_db);
  WL_SPAN_END(mode_span);

  // Ship the Phase-2 configuration to the watch over the control channel.
  phase2_config_.session_id = session_id_;
  phase2_config_.plan = report_.plan;
  phase2_config_.modulation = mode;
  phase2_config_.payload_bits = 32;
  WL_SPAN("phase2.config_send");
  watch_.ApplyPhase2Config(phase2_config_);
  if (auto fail =
          co_await SendControl("p2-config", report_.timings.phase2_comm_ms)) {
    Trace("phase2-config", "control channel failed: " + ToString(*fail));
    co_return fail;
  }
  co_return std::nullopt;
}

sim::CoTask<UnlockOutcome> AttemptMachine::RunPhase2() {
  // --- Phase 2: OFDM-modulated OTP ------------------------------------
  WL_SPAN_V(otp_span, "phase2.otp_generate");
  const std::vector<std::uint8_t> token_bits = otp_->NextTokenBits();
  WL_SPAN_END(otp_span);

  // ARQ over the acoustic hop: the SAME token frame is re-emitted up to
  // kMaxPhase2Retransmits times, and the receiver chase-combines the
  // per-bit LLRs of every copy before each decision, so late rounds
  // decode at the summed SNR instead of starting blind
  // (docs/robustness.md). Fault-free sessions run exactly one round.
  const modem::TxFrame data_tx = modem_->Modulate(*report_.mode, token_bits);
  const bool want_soft = resilient_ && config_.enable_chase_combining;
  const std::size_t payload_bits = phase2_config_.payload_bits;
  modem::SoftCombiner combiner;
  for (int round = 0;; ++round) {
    std::vector<std::uint8_t> bits;
    std::vector<double> llrs;
    if (auto fail = co_await Phase2Round(data_tx, round, want_soft, &bits,
                                         &llrs)) {
      co_return *fail;
    }

    // Chase combining: fold this round's soft output into the running
    // LLR sum; from the second copy on, the combined LLRs (not this
    // round's alone) drive the hard decision.
    if (want_soft && llrs.size() == payload_bits &&
        (combiner.empty() || llrs.size() == combiner.combined().size())) {
      combiner.Add(llrs);
      if (combiner.rounds() > 1) {
        bits = combiner.HardBits();
        WL_COUNT("protocol.chase.decisions");
      }
    }

    WL_SPAN_V(validate_span, "phase2.token_validate");
    TokenValidation validation;
    const bool synced = bits.size() == payload_bits;
    if (synced) {
      // Token validation: BER against this attempt's live token (only
      // acceptance burns it, so re-validating across ARQ rounds is
      // safe).
      validation = otp_->ValidateBits(bits, report_.required_ber);
      report_.token_ber = validation.ber;
      WL_SPAN_ATTR(validate_span, "token_ber", validation.ber);
      WL_SPAN_ATTR(validate_span, "accepted", validation.accepted ? 1.0 : 0.0);
      WL_HIST("protocol.token_ber", validation.ber);
      RecordSubchannelBer(report_.plan, *report_.mode, bits,
                          validation.expected_bits);
      Trace("token-validate",
            "BER " + Fmt(validation.ber, 3) + " vs bound " +
                Fmt(report_.required_ber) +
                (validation.accepted ? ": accepted" : ": rejected"));
    }
    if (validation.accepted) {
      keyguard_->ReportSuccess();
      co_return UnlockOutcome::kUnlocked;
    }
    // Failed round. One keyguard strike per *attempt*, charged at final
    // failure only - in-protocol retransmissions are not user mistakes.
    if (!synced) {
      ++sync_failures_;
      if (hardened_) {
        chan_->RecordEvent("sync-failure", "phase-2 frame did not demodulate",
                           clock_.now());
      }
    }
    if ((!resilient_ && !hardened_) || round >= kMaxPhase2Retransmits ||
        TotalLeft() <= 0.0) {
      if (hardened_ && !synced) {
        // The channel, not the token, is at fault: fail closed with the
        // channel verdict and no strike (an environmental condition, not
        // a user mistake).
        Trace("phase2", "no frame sync on the impaired channel: failing closed");
        co_return UnlockOutcome::kChannelUnusable;
      }
      keyguard_->ReportFailure();
      co_return UnlockOutcome::kTokenRejected;
    }
    WL_COUNT("protocol.retransmit.phase2");
    Trace("phase2-retransmit",
          "token rejected; retransmitting for chase combining (round " +
              std::to_string(round + 2) + ")");
    co_await BackoffPause(round, report_.timings.phase2_comm_ms);
  }
}

// One emission of the token frame, demodulated wherever the degrade
// ladder now puts the DSP; fills `bits` (and `llrs` when soft output is
// wanted) unless the capture was lost.
AttemptMachine::Step AttemptMachine::Phase2Round(
    const modem::TxFrame& data_tx, int round, bool want_soft,
    std::vector<std::uint8_t>* bits, std::vector<double>* llrs) {
  if (!co_await MacAcquire("phase2", report_.timings.phase2_audio_ms)) {
    Trace("mac", "band never cleared for phase 2: channel unusable");
    co_return UnlockOutcome::kChannelUnusable;
  }
  WL_SPAN_V(data_tx_span, "phase2.data_tx");
  const audio::SceneReception data_rx =
      scene_.TransmitFromPhone(data_tx.samples, report_.probe_volume);

  // Optional eavesdropper tap on the first emission.
  if (round == 0 && attack_.eavesdrop_distance_m) {
    report_.eavesdropped_recording = scene_.RecordAtDistance(
        data_tx.samples, report_.probe_volume, *attack_.eavesdrop_distance_m,
        audio::PropagationSpec::IndoorLos(), attack_.eavesdrop_gain_db);
  }

  // Acoustic-path manipulation, in attacker-capability order: a live
  // splice owns the whole path (relay), a replayed capture substitutes
  // it wholesale, and co-channel interference adds on top of whatever
  // the watch hears. Substitutions apply to every ARQ round - a
  // retransmission must not rescue an attacked session.
  audio::Samples recording;
  if (attack_.channel_splice) {
    recording = attack_.channel_splice(data_tx.samples, report_.probe_volume);
  } else if (attack_.replayed_phase2_recording) {
    recording = *attack_.replayed_phase2_recording;
  } else {
    recording = data_rx.watch_recording;
  }
  if (attack_.phase2_interference) {
    if (!interference_) {
      interference_ = attack_.phase2_interference(report_.probe_volume);
    }
    audio::MixInto(recording, *interference_);
  }
  const sim::Millis round_audio_ms = AudioMs(recording.size());
  report_.timings.phase2_audio_ms += round_audio_ms;
  co_await Charge(round_audio_ms);
  WL_SPAN_ATTR(data_tx_span, "samples",
               static_cast<double>(data_tx.samples.size()));
  WL_SPAN_END(data_tx_span);
  report_.timings.phase2_audio_ms += attack_.extra_acoustic_delay_ms;
  co_await Charge(attack_.extra_acoustic_delay_ms);

  // Timing-window replay defense, per round: this round's acoustic
  // exchange cannot take longer than frame duration + stack slack.
  // Fails closed immediately - no retransmission after a violation.
  {
    WL_SPAN("phase2.timing_gate");
    const sim::Millis observed_audio_ms =
        round_audio_ms + attack_.extra_acoustic_delay_ms;
    if (observed_audio_ms > round_audio_ms + kTimingSlackMs) {
      keyguard_->ReportFailure();
      co_return UnlockOutcome::kTimingViolation;
    }
  }

  if (faults_ != nullptr) faults_->MutateRecording("p2-data", &recording);

  // Timing-drift compensation carried over from the probe: the same
  // warp rate holds for this capture (one walker, one clock pair), so
  // the receiver resamples before demodulating.
  if (hardened_ && compensate_ppm_ != 0.0) {
    recording = modem::CompensateRate(recording, compensate_ppm_);
    // One DSP step, charged without the device scale (unlike ChargeCost).
    report_.timings.phase2_compute_ms += kDspStepHostMs;
    co_await Wait(kDspStepHostMs);
  }

  // Demodulation at the offload site (post-degrade-ladder site).
  WL_SPAN_V(demod_span, "phase2.demod");
  const bool watch_local = effective_.site == ProcessingSite::kWatchLocal;
  WL_SPAN_ATTR(demod_span, "watch_local", watch_local ? 1.0 : 0.0);
  const Phase2Report phase2 =
      watch_.MakePhase2Report(session_id_, std::move(recording),
                              phase2_config_, watch_local, want_soft);
  sim::Millis transfer_ms = 0.0;
  if (watch_local) {
    *bits = phase2.demodulated_bits;
    *llrs = phase2.demodulated_llrs;
  } else {
    // An upload lost after the ladder degraded loses this round's copy;
    // the next round demodulates on the watch.
    bool uploaded = true;
    if (auto fail = co_await Upload(
            "p2-upload", "phase2-upload", "demod",
            RecordingBytes(phase2.recording.size()),
            report_.timings.phase2_comm_ms, &transfer_ms, &uploaded)) {
      co_return fail;
    }
    if (uploaded) {
      std::optional<modem::DemodResult> demod = modem_->Demodulate(
          phase2.recording, phase2_config_.modulation,
          phase2_config_.payload_bits, want_soft);
      if (demod) {
        *bits = std::move(demod->bits);
        *llrs = std::move(demod->llrs);
      }
    }
  }
  // A lost upload still charges the step it would have run.
  co_await ChargeCost(transfer_ms, report_.timings.phase2_compute_ms,
                      report_.timings.phase2_comm_ms);
  // Watch-local result bits travel back as a small message.
  if (watch_local) {
    if (auto fail = co_await SendControl("p2-result",
                                         report_.timings.phase2_comm_ms)) {
      Trace("phase2-result", "control channel failed: " + ToString(*fail));
      co_return fail;
    }
  }
  report_.watch_energy_mj += sim::DeviceProfile::EnergyMj(
      AudioMs(data_rx.watch_recording.size()), offload_.watch.record_power_mw);
  WL_SPAN_END(demod_span);
  co_return std::nullopt;
}

// --- Transport, waits and accounting ----------------------------------

sim::CoTask<> AttemptMachine::Charge(sim::Millis ms) {
  proto_ms_ += ms;
  co_await Wait(ms);
}

sim::Millis AttemptMachine::TotalLeft() const {
  return kTotalDeadlineMs - proto_ms_;
}

void AttemptMachine::Trace(const std::string& step,
                           const std::string& detail) {
  report_.trace.push_back({step, detail, clock_.now()});
}

void AttemptMachine::MaybeDegrade() {
  if (effective_.site == ProcessingSite::kOffloadToPhone &&
      link_faults_ >= kDegradeAfterLinkFaults) {
    effective_.site = ProcessingSite::kWatchLocal;
    WL_COUNT("protocol.degrade.count");
    Trace("degrade", "flaky link: processing falls back to watch-local");
  }
}

// Bounded exponential pause between retransmissions, charged to the
// virtual clock like every other wait.
sim::CoTask<> AttemptMachine::BackoffPause(int attempt,
                                           sim::Millis& comm_ms) {
  const sim::Millis backoff =
      BackoffMs(attempt, kRetryBackoffBaseMs, kRetryBackoffMaxMs);
  WL_HIST("protocol.backoff_ms", backoff);
  comm_ms += backoff;
  co_await Charge(backoff);
  if (faults_ != nullptr) faults_->MaybeReconnect(link_);
}

// The link went down mid-protocol. Wait out the scheduled outage (if
// any) up to the stage budget; a link that stays down is a defined
// failure, not a hang.
AttemptMachine::Step AttemptMachine::WaitOutLink(sim::Millis stage_left,
                                                 sim::Millis& comm_ms) {
  ++link_faults_;
  MaybeDegrade();
  if (!faults_->flap_down()) {
    WL_COUNT("protocol.link_lost");
    co_return UnlockOutcome::kLinkFlapped;
  }
  // All three bounds are durations, not absolute clock readings, so
  // the wait (and whether the link recovers within it) is a pure
  // function of the seed.
  const sim::Millis outage_left =
      std::max(0.0, faults_->reconnect_at_ms() - clock_.now());
  const sim::Millis wait =
      std::max(0.0, std::min({outage_left, stage_left, TotalLeft()}));
  if (wait > 0.0) {
    WL_HIST("protocol.link_wait_ms", wait);
    comm_ms += wait;
    co_await Charge(wait);
  }
  faults_->MaybeReconnect(link_);
  if (!link_.connected()) {
    WL_COUNT("protocol.link_lost");
    co_return UnlockOutcome::kLinkFlapped;
  }
  co_return std::nullopt;
}

// The resilience policy around one send through the fault injector: a
// try that is lost, or delivered later than `max_delay_ms`, is presumed
// lost after kMessageTimeoutMs of silence and retransmitted with
// bounded backoff; outage waits are charged but not counted against the
// retry budget. On delivery, *delay_ms is the delivered latency.
AttemptMachine::Step AttemptMachine::Deliver(
    const std::function<sim::FaultInjector::SendResult()>& send,
    sim::Millis max_delay_ms, sim::Millis& comm_ms, sim::Millis* delay_ms) {
  const sim::Millis stage_budget = std::min(kStageBudgetMs, TotalLeft());
  const sim::Millis stage_start = proto_ms_;
  int sends = 0;
  while (true) {
    if (proto_ms_ - stage_start >= stage_budget) {
      WL_COUNT("protocol.timeout.stage");
      co_return UnlockOutcome::kStageTimeout;
    }
    const sim::FaultInjector::SendResult r = send();
    if (r.status == sim::FaultInjector::SendStatus::kLinkDown) {
      if (auto fail = co_await WaitOutLink(
              stage_budget - (proto_ms_ - stage_start), comm_ms)) {
        co_return fail;
      }
      continue;  // outage waits do not burn the retransmit budget
    }
    if (r.status == sim::FaultInjector::SendStatus::kDelivered &&
        r.delay_ms <= max_delay_ms) {
      *delay_ms = r.delay_ms;
      co_return std::nullopt;
    }
    // Dropped, or delay-spiked past the timeout: the sender sees only
    // silence for kMessageTimeoutMs, then retransmits.
    ++link_faults_;
    MaybeDegrade();
    WL_COUNT("protocol.timeout.count");
    comm_ms += kMessageTimeoutMs;
    co_await Charge(kMessageTimeoutMs);
    if (sends >= kMaxMessageRetries) {
      WL_COUNT("protocol.retries_exhausted");
      co_return UnlockOutcome::kRetriesExhausted;
    }
    WL_COUNT("protocol.retransmit.count");
    co_await BackoffPause(sends, comm_ms);
    ++sends;
  }
}

// One control message. Under faults it is presumed lost once
// kMessageTimeoutMs pass without delivery.
AttemptMachine::Step AttemptMachine::SendControl(const std::string& stage,
                                                 sim::Millis& comm_ms) {
  sim::Millis delay_ms = 0.0;
  if (faults_ == nullptr) {
    delay_ms = link_.SampleMessageDelay();
  } else if (auto fail = co_await Deliver(
                 [&] { return faults_->SendMessage(link_, stage); },
                 kMessageTimeoutMs, comm_ms, &delay_ms)) {
    co_return fail;
  }
  comm_ms += delay_ms;
  co_await Charge(delay_ms);
  co_return std::nullopt;
}

// Ship a recording to the phone for offloaded processing. A delivered
// transfer is streamed - spikes slow it down but never time it out -
// and its duration lands in *transfer_ms for the cost accounting rather
// than being charged here. A failed upload ends the attempt, unless the
// degrade ladder has just moved processing to the watch: then the
// upload is abandoned (*uploaded false, *transfer_ms zero) and
// `local_work` continues on the watch.
AttemptMachine::Step AttemptMachine::Upload(
    const std::string& stage, const std::string& step,
    const std::string& local_work, std::size_t bytes, sim::Millis& comm_ms,
    sim::Millis* transfer_ms, bool* uploaded) {
  std::optional<UnlockOutcome> fail;
  if (faults_ == nullptr) {
    *transfer_ms = link_.SampleFileDelay(bytes);
  } else {
    fail = co_await Deliver(
        [&] { return faults_->SendFile(link_, bytes, stage); },
        std::numeric_limits<sim::Millis>::infinity(), comm_ms, transfer_ms);
  }
  if (!fail) co_return std::nullopt;
  MaybeDegrade();
  if (effective_.site == ProcessingSite::kOffloadToPhone ||
      *fail == UnlockOutcome::kStageTimeout) {
    Trace(step, "upload failed: " + ToString(*fail));
    co_return fail;
  }
  Trace(step, "upload failed (" + ToString(*fail) +
                  "); degraded to watch-local " + local_work);
  *transfer_ms = 0.0;
  *uploaded = false;
  co_return std::nullopt;
}

// One DSP step at the (post-degrade) site: compute (kDspStepHostMs
// scaled by that device), transfer and energy into the report, then the
// modeled wait. Only the transfer counts against the budgets
// (CostWithTransfer passes transfer_ms through unchanged).
sim::CoTask<StepCost> AttemptMachine::ChargeCost(sim::Millis transfer_ms,
                                                 sim::Millis& compute_ms,
                                                 sim::Millis& comm_ms) {
  const StepCost cost =
      effective_.CostWithTransfer(kDspStepHostMs, transfer_ms, link_.radio());
  compute_ms += cost.compute_ms;
  comm_ms += cost.transfer_ms;
  report_.watch_energy_mj += cost.watch_energy_mj;
  report_.phone_energy_mj += cost.phone_energy_mj;
  co_await Charge(transfer_ms);
  co_await Wait(cost.compute_ms);
  co_return cost;
}

// Listen-before-talk (the acoustic MAC): sense the band through the
// phone's own mic and defer the emission with bounded-exponential
// backoff while a neighbor holds it. All waits are modeled time, and
// the scene's acoustic cursor advances with them, so a re-listen sees
// every neighbor's duty cycle progressed. Returns false when the band
// never cleared within the attempt budget.
sim::CoTask<bool> AttemptMachine::MacAcquire(const char* stage,
                                             sim::Millis& audio_ms) {
  if (!hardened_ || !chan_->has_neighbors()) co_return true;
  for (int attempt = 0; attempt <= kMacMaxAttempts; ++attempt) {
    const std::size_t n = kMacSenseWindowSamples;
    const auto [phone_sense, watch_sense] = scene_.RecordAmbientPair(n);
    (void)watch_sense;
    const sim::Millis sense_ms = AudioMs(n);
    audio_ms += sense_ms;
    co_await Charge(sense_ms);
    sense_ = SenseChannel(config_.frame, phone_sense);
    if (!sense_->busy) {
      chan_->RecordEvent("mac-clear",
                         std::string(stage) + ": in-band " +
                             Fmt(sense_->inband_db, 1) + " dB, floor " +
                             Fmt(sense_->floor_db, 1) + " dB",
                         clock_.now());
      co_return true;
    }
    if (attempt == kMacMaxAttempts || TotalLeft() <= 0.0) break;
    const sim::Millis backoff =
        BackoffMs(attempt, kMacBackoffBaseMs, kMacBackoffMaxMs);
    WL_COUNT("protocol.mac.defer");
    chan_->RecordEvent("mac-defer",
                       std::string(stage) + ": busy, backoff " +
                           Fmt(backoff, 0) + " ms",
                       clock_.now());
    Trace("mac-defer", std::string(stage) + " deferred " + Fmt(backoff, 0) +
                           " ms: band busy");
    scene_.AdvanceTimeMs(backoff);
    co_await Charge(backoff);
  }
  WL_COUNT("protocol.mac.unusable");
  chan_->RecordEvent("mac-unusable", stage, clock_.now());
  co_return false;
}

}  // namespace wearlock::protocol
