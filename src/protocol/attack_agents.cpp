#include "protocol/attack_agents.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "audio/propagation.h"
#include "audio/signal.h"
#include "modem/frame.h"
#include "modem/modem.h"
#include "protocol/otp_service.h"

namespace wearlock::protocol {
namespace {

/// Salt mixed into the scenario seed for the attacker's own stream -
/// off the session's Fork() chain, so arming an attack never perturbs
/// the victim's scene/link/motion draws.
constexpr std::uint64_t kAdversarySeedSalt = 0xA77AC4E5D15ULL;

/// OTP tokens travel as 32-bit HOTP words (modem::BitsFromWord).
constexpr std::size_t kTokenBits = 32;

/// The relay's pickup and emitter mics sit this close to the victim
/// devices (the attacker controls placement; closer is better for it).
constexpr double kRelayPickupM = 0.25;

sim::Rng AdversaryRng(const ScenarioConfig& scenario) {
  return sim::Rng(scenario.seed ^ kAdversarySeedSalt);
}

/// Speaker drive for an active attacker that transmits `level` times
/// louder than the victim's probe volume. Its speaker is the phone
/// model, so the drive saturates at full scale.
double AttackerDrive(double victim_volume, double level) {
  return std::min(1.0, victim_volume * level);
}

/// Rescore the attacked attempt's row for the ATTACKER:
/// same_body=false, unlocked/false_accept = attacker_won, so cohort
/// FalseAcceptRate aggregates attacker success. The victim's verdict
/// stays visible in `outcome`.
obs::SessionRecord AttackerRecord(obs::SessionRecord emitted,
                                  bool attacker_won) {
  emitted.same_body = false;
  emitted.unlocked = attacker_won;
  emitted.false_accept = attacker_won;
  return emitted;
}

/// `base` with `spec` as the attack it is subjected to (a cohort axis
/// of every record). Agents never mutate the caller's scenario.
ScenarioConfig Targeted(const ScenarioConfig& base,
                        const sim::AttackSpec& spec) {
  ScenarioConfig scenario = base;
  scenario.attack = spec;
  return scenario;
}

/// The attacked session, the adversary device armed beside it, and the
/// last record the session emitted. An attempt's record carries that
/// attempt's own fault, chase and degrade counts; Finish rescores it
/// once the agent knows the verdict.
struct AttackedSession {
  AttackedSession(const ScenarioConfig& scenario, const sim::AttackSpec& spec)
      : session(scenario),
        dev(spec, AdversaryRng(scenario), &session.clock()) {
    session.SetRecordSink(
        [this](const obs::SessionRecord& record) { emitted = record; });
    dev.Record("arm", spec.distance_m);
  }
  AttackedSession(const AttackedSession&) = delete;
  AttackedSession& operator=(const AttackedSession&) = delete;

  UnlockSession session;
  sim::AdversaryDevice dev;
  obs::SessionRecord emitted;
};

/// Fill the victim's side of `out` from the attacked attempt's report
/// and add the attacker-scored row.
void Finish(AttackReport& out, const UnlockReport& rep,
            const AttackedSession& attacked, bool attacker_won) {
  out.victim_outcome = rep.outcome;
  out.victim_unlocked = rep.unlocked;
  out.ranging_distance_m = rep.ranging_distance_m;
  out.victim_report = rep;
  out.events = attacked.dev.events();
  out.records.push_back(AttackerRecord(attacked.emitted, attacker_won));
}

/// Passive listener at range. The tap runs inside the attacked session
/// (its attempt renders the third-mic capture); recovery then runs
/// the real demodulator over the capture. Worst case by construction:
/// the attacker is granted the negotiated mode and sub-channel plan
/// (they travel over the encrypted control link in deployment), so the
/// matrix pins that even an oracle-informed listener fails on acoustics
/// alone.
AttackReport Eavesdrop(const ScenarioConfig& base,
                       const sim::AttackSpec& spec) {
  AttackReport out;
  out.spec = spec;
  const ScenarioConfig scenario = Targeted(base, spec);
  AttackedSession attacked(scenario, spec);
  sim::AdversaryDevice& dev = attacked.dev;

  AttackInjection tap;
  tap.eavesdrop_distance_m = spec.distance_m;
  tap.eavesdrop_gain_db = spec.gain_db;
  const UnlockReport rep = attacked.session.Attempt(tap);

  if (rep.eavesdropped_recording.has_value() && rep.mode.has_value()) {
    dev.StoreCapture(*rep.eavesdropped_recording);
    const modem::AcousticModem rx =
        modem::AcousticModem(scenario.phone.frame).WithPlan(rep.plan);
    const auto demod = rx.Demodulate(dev.LastCapture(), *rep.mode, kTokenBits);
    if (demod.has_value()) {
      // Mirror the victim validator's state at transmission time:
      // token 0 minted and outstanding (ValidateBits only searches
      // issued counters). Acceptance here means the attacker decoded
      // the on-air token - scored as a break regardless of whether
      // the victim's own unlock already burned the counter (the
      // strictest reading of "token recovered").
      OtpService oracle(scenario.otp_key);
      (void)oracle.NextTokenBits();
      const TokenValidation v =
          oracle.ValidateBits(demod->bits, rep.required_ber);
      out.attacker_token_ber = v.ber;
      out.token_recovered = v.accepted;
      dev.Record("otp-recovery-ber", v.ber);
      dev.Record("otp-recovery", v.accepted ? 1.0 : 0.0);
      // Audible sound carries: recovery at range is expected physics,
      // not the break. The break would be a LIVE credential - so
      // present the recovery to the session's own validator in its
      // post-attempt state. HOTP one-time semantics answer it: the
      // counter the victim's unlock consumed is burned, so the
      // recovered token validates stale.
      const TokenValidation live =
          attacked.session.otp().ValidateBits(demod->bits, rep.required_ber);
      out.false_unlock = live.accepted;
      dev.Record("credential-live", live.accepted ? 1.0 : 0.0);
    }
  }
  // Eavesdrop rows score recovery capability (the bench's
  // distance-decay curve); the live-credential verdict stays in
  // false_unlock for the matrix invariant.
  Finish(out, rep, attacked, out.token_recovered);
  return out;
}

/// Tape-recorder attacker: capture a legitimate session's Phase 2 from
/// range, wait for the phone to relock, play the tape back. Two layers
/// answer it: the validator's counter advanced past the captured token
/// (one-time semantics), and the handling delay shows up in the timing
/// window and the distance-bounding chirp arrivals.
AttackReport Replay(const ScenarioConfig& base, const sim::AttackSpec& spec) {
  AttackReport out;
  out.spec = spec;
  // One session for both passes: OTP counters and keyguard state must
  // carry from the victim's unlock into the replay, exactly as they
  // would on a real phone. The row is the last emission, the replay's.
  AttackedSession attacked(Targeted(base, spec), spec);
  UnlockSession& session = attacked.session;
  sim::AdversaryDevice& dev = attacked.dev;

  AttackInjection tap;
  tap.eavesdrop_distance_m = spec.distance_m;
  tap.eavesdrop_gain_db = spec.gain_db;
  const UnlockReport capture = session.Attempt(tap);
  if (!capture.eavesdropped_recording.has_value()) {
    Finish(out, capture, attacked, false);
    return out;
  }
  dev.StoreCapture(*capture.eavesdropped_recording);

  // The victim walks away; the attacker presses the power button.
  session.keyguard().Relock();
  dev.Record("replay", spec.handling_delay_ms);
  AttackInjection replay;
  replay.replayed_phase2_recording = dev.LastCapture();
  replay.extra_acoustic_delay_ms = spec.handling_delay_ms;
  replay.ranging_extra_delay_ms = spec.handling_delay_ms;
  const UnlockReport rep = session.Attempt(replay);

  out.attacker_token_ber = rep.token_ber;
  out.false_unlock = rep.unlocked;  // the replay pass IS the attacker
  Finish(out, rep, attacked, out.false_unlock);
  return out;
}

/// Live wormhole (mafia fraud): the watch is genuinely out of range at
/// spec.distance_m; the attacker bridges the gap with a pickup mic next
/// to the phone, a net loop gain, and an emitter next to the watch.
/// Every phone emission - RTS probe, ranging chirps, Phase-2 data -
/// rides the bridge, so the relay's physics (two short acoustic hops
/// plus electronics latency) lands in everything the phone measures.
/// Only acoustic distance bounding catches it: the token is fresh and
/// the timing window only sees the expected capture length.
AttackReport Relay(const ScenarioConfig& base, const sim::AttackSpec& spec) {
  AttackReport out;
  out.spec = spec;
  ScenarioConfig scenario = Targeted(base, spec);
  scenario.scene.distance_m = spec.distance_m;
  // The wearer is elsewhere; the attacker holds the stolen phone
  // still (worst case for the motion filter: the sensor filter is
  // off) inside the same large room (worst case for the ambient
  // filter).
  scenario.same_body = false;
  scenario.phone.enable_sensor_filter = false;
  AttackedSession attacked(scenario, spec);

  audio::TwoMicScene& scene = attacked.session.scene();
  sim::AdversaryDevice* devp = &attacked.dev;
  const double hop_ms = sim::AdversaryDevice::PathDelayMs(kRelayPickupM);
  const sim::Millis handling_ms = spec.handling_delay_ms;
  const double gain_db = spec.gain_db;
  AttackInjection inj;
  inj.channel_splice = [&scene, devp, hop_ms, handling_ms, gain_db](
                           const audio::Samples& emission, double volume) {
    // Pickup capture right next to the phone (directional gain =
    // the relay's net loop gain), then the emitter->watch hop plus
    // electronics latency land as a pure sample shift - which is
    // exactly what round-trip ranging measures.
    audio::Samples bridged = scene.RecordAtDistance(
        emission, volume, kRelayPickupM, scene.config().propagation, gain_db);
    const auto shift = static_cast<std::size_t>(
        std::llround((handling_ms + hop_ms) * audio::kSampleRate / 1000.0));
    audio::Samples relayed = audio::Silence(shift);
    audio::Append(relayed, bridged);
    devp->Record("forward", static_cast<double>(relayed.size()));
    return relayed;
  };
  const UnlockReport rep = attacked.session.Attempt(inj);

  out.attacker_token_ber = rep.token_ber;
  out.false_unlock = rep.unlocked;  // any unlock here is the attacker's
  Finish(out, rep, attacked, out.false_unlock);
  return out;
}

/// SonarSnoop-style active sonar: the attacker emits a chirp train in
/// the modem's own band during Phase 2. It carries no credential -
/// success for the attacker would be sensing/disruption, never an
/// unlock - so the matrix pins false_unlock == false structurally and
/// the victim outcome (clean unlock vs. jammed rejection) empirically.
AttackReport Probe(const ScenarioConfig& base, const sim::AttackSpec& spec) {
  AttackReport out;
  out.spec = spec;
  const ScenarioConfig scenario = Targeted(base, spec);
  AttackedSession attacked(scenario, spec);
  attacked.dev.Record("probe-emit", spec.level);

  // Chirp train co-channel with the frame preamble, long enough to
  // blanket the whole Phase-2 capture window, calibrated relative to
  // the volume the victim's own probe rule picked.
  AttackInjection inj;
  inj.phase2_interference = [&spec, &scenario](double victim_volume) {
    const audio::Samples chirp = modem::MakePreamble(scenario.phone.frame);
    const std::size_t span = audio::kLeadInSamples + 16 * chirp.size() +
                             audio::kSceneLeadOutSamples;
    audio::Samples train;
    train.reserve(span + chirp.size());
    while (train.size() < span) audio::Append(train, chirp);
    audio::Samples emitted = scenario.scene.phone_speaker.Emit(
        std::move(train), AttackerDrive(victim_volume > 0.0 ? victim_volume : 1.0,
                                        spec.level));
    const audio::PropagationModel path(scenario.scene.propagation);
    return path.Propagate(std::move(emitted), spec.distance_m);
  };
  const UnlockReport rep = attacked.session.Attempt(inj);

  out.false_unlock = false;  // structurally: the probe forges nothing
  Finish(out, rep, attacked, false);
  return out;
}

/// AIC-style overshadowing: a forged OFDM frame carrying guessed token
/// bits, emitted over the legitimate Phase-2 transmission. The recon
/// pass grants the attacker everything but the secret - mode, plan and
/// volume - mirroring the overshadowing adversary's standard model.
/// Success requires the session to unlock on data attributable to the
/// attacker, i.e. the guessed bits themselves inside the validator's
/// acceptance ball - guessing a live HOTP token.
AttackReport Overshadow(const ScenarioConfig& base,
                        const sim::AttackSpec& spec) {
  AttackReport out;
  out.spec = spec;
  UnlockSession recon(base);
  const UnlockReport recon_rep = recon.Attempt();

  const ScenarioConfig scenario = Targeted(base, spec);
  AttackedSession attacked(scenario, spec);
  sim::AdversaryDevice& dev = attacked.dev;

  AttackInjection inj;
  std::vector<std::uint8_t> guess;
  if (recon_rep.mode.has_value()) {
    guess.reserve(kTokenBits);
    for (std::size_t i = 0; i < kTokenBits; ++i) {
      guess.push_back(static_cast<std::uint8_t>(dev.rng().UniformInt(0, 1)));
    }
    const modem::AcousticModem tx =
        modem::AcousticModem(scenario.phone.frame).WithPlan(recon_rep.plan);
    const modem::TxFrame forged = tx.Modulate(*recon_rep.mode, guess);
    const double victim_volume =
        recon_rep.probe_volume > 0.0 ? recon_rep.probe_volume : 1.0;
    audio::Samples emitted = scenario.scene.phone_speaker.Emit(
        forged.samples, AttackerDrive(victim_volume, spec.level));
    const audio::PropagationModel path(scenario.scene.propagation);
    // Aligned with the legitimate frame start (the overshadower is
    // synchronized up to its own propagation delay).
    audio::Samples interference = audio::Silence(audio::kLeadInSamples);
    audio::Append(interference,
                  path.Propagate(std::move(emitted), spec.distance_m));
    inj.phase2_interference = [interference](double) { return interference; };
    dev.Record("overshadow-emit", spec.level);
  }
  const UnlockReport rep = attacked.session.Attempt(inj);

  if (!guess.empty()) {
    // Same issued-counter mirroring as the eavesdropper's oracle.
    OtpService oracle(scenario.otp_key);
    (void)oracle.NextTokenBits();
    const TokenValidation v = oracle.ValidateBits(guess, rep.required_ber);
    out.attacker_token_ber = v.ber;
    // Unlock alone is not attacker success: if the legitimate frame
    // out-powered the forgery, the accepted bits were the real token.
    out.false_unlock = rep.unlocked && v.accepted;
  }
  Finish(out, rep, attacked, out.false_unlock);
  return out;
}

}  // namespace

AttackReport RunAttackScenario(const ScenarioConfig& scenario,
                               const sim::AttackSpec& spec) {
  switch (spec.kind) {
    case sim::AttackKind::kEavesdrop:
      return Eavesdrop(scenario, spec);
    case sim::AttackKind::kReplay:
      return Replay(scenario, spec);
    case sim::AttackKind::kRelay:
      return Relay(scenario, spec);
    case sim::AttackKind::kProbe:
      return Probe(scenario, spec);
    case sim::AttackKind::kOvershadow:
      return Overshadow(scenario, spec);
  }
  return Eavesdrop(scenario, spec);  // unreachable
}

}  // namespace wearlock::protocol
