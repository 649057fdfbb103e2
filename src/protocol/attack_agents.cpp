#include "protocol/attack_agents.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

/// Flatten the attacked session into a row scoring the ATTACKER:
/// same_body=false, unlocked/false_accept = attacker_won, so cohort
/// FalseAcceptRate aggregates attacker success. The victim's verdict
/// stays visible in `outcome`.
obs::SessionRecord AttackerRecord(const UnlockSession& session,
                                  const UnlockReport& report,
                                  bool attacker_won) {
  obs::SessionRecord r = session.BuildRecord(report, /*retries=*/0);
  r.same_body = false;
  r.unlocked = attacker_won;
  r.false_accept = attacker_won;
  return r;
}

void FinishReport(AttackReport& out, const UnlockReport& rep,
                  const sim::AdversaryDevice& dev) {
  out.victim_outcome = rep.outcome;
  out.victim_unlocked = rep.unlocked;
  out.ranging_distance_m = rep.ranging_distance_m;
  out.victim_report = rep;
  out.events = dev.events();
}

/// Passive listener at range. The tap runs inside the attacked session
/// (its attempt renders the third-mic capture); recovery then runs
/// the real demodulator over the capture. Worst case by construction:
/// the attacker is granted the negotiated mode and sub-channel plan
/// (they travel over the encrypted control link in deployment), so the
/// matrix pins that even an oracle-informed listener fails on acoustics
/// alone.
class EavesdropAgent : public AttackAgent {
 public:
  explicit EavesdropAgent(sim::AttackSpec spec) : spec_(std::move(spec)) {}

  AttackReport Execute(const ScenarioConfig& base) override {
    AttackReport out;
    out.spec = spec_;
    ScenarioConfig scenario = base;
    scenario.attack = spec_;
    UnlockSession session(scenario);
    sim::AdversaryDevice dev(spec_, AdversaryRng(scenario), &session.clock());
    dev.Record("arm", spec_.distance_m);

    AttackInjection tap;
    tap.eavesdrop_distance_m = spec_.distance_m;
    tap.eavesdrop_gain_db = spec_.gain_db;
    const UnlockReport rep = session.Attempt(tap);

    if (rep.eavesdropped_recording.has_value() && rep.mode.has_value()) {
      dev.StoreCapture(*rep.eavesdropped_recording);
      const modem::AcousticModem rx =
          modem::AcousticModem(scenario.phone.frame)
              .WithPlan(rep.plan);
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
            session.otp().ValidateBits(demod->bits, rep.required_ber);
        out.false_unlock = live.accepted;
        dev.Record("credential-live", live.accepted ? 1.0 : 0.0);
      }
    }
    FinishReport(out, rep, dev);
    // Eavesdrop rows score recovery capability (the bench's
    // distance-decay curve); the live-credential verdict stays in
    // false_unlock for the matrix invariant.
    out.records.push_back(AttackerRecord(session, rep, out.token_recovered));
    return out;
  }

 private:
  sim::AttackSpec spec_;
};

/// Tape-recorder attacker: capture a legitimate session's Phase 2 from
/// range, wait for the phone to relock, play the tape back. Two layers
/// answer it: the validator's counter advanced past the captured token
/// (one-time semantics), and the handling delay shows up in the timing
/// window and the distance-bounding chirp arrivals.
class ReplayAgent : public AttackAgent {
 public:
  explicit ReplayAgent(sim::AttackSpec spec) : spec_(std::move(spec)) {}

  AttackReport Execute(const ScenarioConfig& base) override {
    AttackReport out;
    out.spec = spec_;
    ScenarioConfig scenario = base;
    scenario.attack = spec_;
    // One session for both passes: OTP counters and keyguard state must
    // carry from the victim's unlock into the replay, exactly as they
    // would on a real phone.
    UnlockSession session(scenario);
    sim::AdversaryDevice dev(spec_, AdversaryRng(scenario), &session.clock());
    dev.Record("arm", spec_.distance_m);

    AttackInjection tap;
    tap.eavesdrop_distance_m = spec_.distance_m;
    tap.eavesdrop_gain_db = spec_.gain_db;
    const UnlockReport capture = session.Attempt(tap);
    if (!capture.eavesdropped_recording.has_value()) {
      FinishReport(out, capture, dev);
      out.records.push_back(AttackerRecord(session, capture, false));
      return out;
    }
    dev.StoreCapture(*capture.eavesdropped_recording);

    // The victim walks away; the attacker presses the power button.
    session.keyguard().Relock();
    dev.Record("replay", spec_.handling_delay_ms);
    AttackInjection replay;
    replay.replayed_phase2_recording = dev.LastCapture();
    replay.extra_acoustic_delay_ms = spec_.handling_delay_ms;
    replay.ranging_extra_delay_ms = spec_.handling_delay_ms;
    const UnlockReport rep = session.Attempt(replay);

    out.attacker_token_ber = rep.token_ber;
    out.false_unlock = rep.unlocked;  // the replay pass IS the attacker
    FinishReport(out, rep, dev);
    out.records.push_back(AttackerRecord(session, rep, out.false_unlock));
    return out;
  }

 private:
  sim::AttackSpec spec_;
};

/// Live wormhole (mafia fraud): the watch is genuinely out of range at
/// spec.distance_m; the attacker bridges the gap with a pickup mic next
/// to the phone, a net loop gain, and an emitter next to the watch.
/// Every phone emission - RTS probe, ranging chirps, Phase-2 data -
/// rides the bridge, so the relay's physics (two short acoustic hops
/// plus electronics latency) lands in everything the phone measures.
/// Only acoustic distance bounding catches it: the token is fresh and
/// the timing window only sees the expected capture length.
class RelayAgent : public AttackAgent {
 public:
  explicit RelayAgent(sim::AttackSpec spec) : spec_(std::move(spec)) {}

  AttackReport Execute(const ScenarioConfig& base) override {
    AttackReport out;
    out.spec = spec_;
    ScenarioConfig scenario = base;
    scenario.attack = spec_;
    scenario.scene.distance_m = spec_.distance_m;
    // The wearer is elsewhere; the attacker holds the stolen phone
    // still (worst case for the motion filter: the sensor filter is
    // off) inside the same large room (worst case for the ambient
    // filter).
    scenario.same_body = false;
    scenario.phone.enable_sensor_filter = false;
    UnlockSession session(scenario);
    sim::AdversaryDevice dev(spec_, AdversaryRng(scenario), &session.clock());
    dev.Record("arm", spec_.distance_m);

    audio::TwoMicScene& scene = session.scene();
    sim::AdversaryDevice* devp = &dev;
    const double hop_ms = sim::AdversaryDevice::PathDelayMs(kRelayPickupM);
    const sim::Millis handling_ms = spec_.handling_delay_ms;
    const double gain_db = spec_.gain_db;
    AttackInjection inj;
    inj.channel_splice = [&scene, devp, hop_ms, handling_ms, gain_db](
                             const audio::Samples& emission, double volume) {
      // Pickup capture right next to the phone (directional gain =
      // the relay's net loop gain), then the emitter->watch hop plus
      // electronics latency land as a pure sample shift - which is
      // exactly what round-trip ranging measures.
      audio::Samples bridged = scene.RecordAtDistance(
          emission, volume, kRelayPickupM, scene.config().propagation,
          gain_db);
      const auto shift = static_cast<std::size_t>(
          std::llround((handling_ms + hop_ms) * audio::kSampleRate / 1000.0));
      audio::Samples relayed = audio::Silence(shift);
      audio::Append(relayed, bridged);
      devp->Record("forward", static_cast<double>(relayed.size()));
      return relayed;
    };
    const UnlockReport rep = session.Attempt(inj);

    out.attacker_token_ber = rep.token_ber;
    out.false_unlock = rep.unlocked;  // any unlock here is the attacker's
    FinishReport(out, rep, dev);
    out.records.push_back(AttackerRecord(session, rep, out.false_unlock));
    return out;
  }

 private:
  sim::AttackSpec spec_;
};

/// SonarSnoop-style active sonar: the attacker emits a chirp train in
/// the modem's own band during Phase 2. It carries no credential -
/// success for the attacker would be sensing/disruption, never an
/// unlock - so the matrix pins false_unlock == false structurally and
/// the victim outcome (clean unlock vs. jammed rejection) empirically.
class ProbeAgent : public AttackAgent {
 public:
  explicit ProbeAgent(sim::AttackSpec spec) : spec_(std::move(spec)) {}

  AttackReport Execute(const ScenarioConfig& base) override {
    AttackReport out;
    out.spec = spec_;
    ScenarioConfig scenario = base;
    scenario.attack = spec_;
    UnlockSession session(scenario);
    sim::AdversaryDevice dev(spec_, AdversaryRng(scenario), &session.clock());
    dev.Record("arm", spec_.distance_m);
    dev.Record("probe-emit", spec_.level);

    // Chirp train co-channel with the frame preamble, long enough to
    // blanket the whole Phase-2 capture window, calibrated relative to
    // the volume the victim's own probe rule picked.
    AttackInjection inj;
    inj.phase2_interference = [this, &scenario](double victim_volume) {
      const audio::Samples chirp = modem::MakePreamble(scenario.phone.frame);
      const std::size_t span = scenario.scene.lead_in_samples +
                               16 * chirp.size() +
                               scenario.scene.lead_out_samples;
      audio::Samples train;
      train.reserve(span + chirp.size());
      while (train.size() < span) audio::Append(train, chirp);
      const audio::Samples emitted = scenario.scene.phone_speaker.Emit(
          train, AttackerDrive(victim_volume > 0.0 ? victim_volume : 1.0,
                               spec_.level));
      const audio::PropagationModel path(scenario.scene.propagation);
      return path.Propagate(emitted, spec_.distance_m);
    };
    const UnlockReport rep = session.Attempt(inj);

    out.false_unlock = false;  // structurally: the probe forges nothing
    FinishReport(out, rep, dev);
    out.records.push_back(AttackerRecord(session, rep, false));
    return out;
  }

 private:
  sim::AttackSpec spec_;
};

/// AIC-style overshadowing: a forged OFDM frame carrying guessed token
/// bits, emitted over the legitimate Phase-2 transmission. The recon
/// pass grants the attacker everything but the secret - mode, plan and
/// volume - mirroring the overshadowing adversary's standard model.
/// Success requires the session to unlock on data attributable to the
/// attacker, i.e. the guessed bits themselves inside the validator's
/// acceptance ball - guessing a live HOTP token.
class OvershadowAgent : public AttackAgent {
 public:
  explicit OvershadowAgent(sim::AttackSpec spec) : spec_(std::move(spec)) {}

  AttackReport Execute(const ScenarioConfig& base) override {
    AttackReport out;
    out.spec = spec_;
    UnlockSession recon(base);
    const UnlockReport recon_rep = recon.Attempt();

    ScenarioConfig scenario = base;
    scenario.attack = spec_;
    UnlockSession session(scenario);
    sim::AdversaryDevice dev(spec_, AdversaryRng(scenario), &session.clock());
    dev.Record("arm", spec_.distance_m);

    AttackInjection inj;
    std::vector<std::uint8_t> guess;
    if (recon_rep.mode.has_value()) {
      guess.reserve(kTokenBits);
      for (std::size_t i = 0; i < kTokenBits; ++i) {
        guess.push_back(static_cast<std::uint8_t>(dev.rng().UniformInt(0, 1)));
      }
      const modem::AcousticModem tx =
          modem::AcousticModem(scenario.phone.frame)
              .WithPlan(recon_rep.plan);
      const modem::TxFrame forged = tx.Modulate(*recon_rep.mode, guess);
      const double victim_volume =
          recon_rep.probe_volume > 0.0 ? recon_rep.probe_volume : 1.0;
      const audio::Samples emitted = scenario.scene.phone_speaker.Emit(
          forged.samples, AttackerDrive(victim_volume, spec_.level));
      const audio::PropagationModel path(scenario.scene.propagation);
      // Aligned with the legitimate frame start (the overshadower is
      // synchronized up to its own propagation delay).
      audio::Samples interference =
          audio::Silence(scenario.scene.lead_in_samples);
      audio::Append(interference, path.Propagate(emitted, spec_.distance_m));
      inj.phase2_interference = [interference](double) { return interference; };
      dev.Record("overshadow-emit", spec_.level);
    }
    const UnlockReport rep = session.Attempt(inj);

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
    FinishReport(out, rep, dev);
    out.records.push_back(AttackerRecord(session, rep, out.false_unlock));
    return out;
  }

 private:
  sim::AttackSpec spec_;
};

}  // namespace

std::unique_ptr<AttackAgent> MakeAttackAgent(const sim::AttackSpec& spec) {
  switch (spec.kind) {
    case sim::AttackKind::kEavesdrop:
      return std::make_unique<EavesdropAgent>(spec);
    case sim::AttackKind::kReplay:
      return std::make_unique<ReplayAgent>(spec);
    case sim::AttackKind::kRelay:
      return std::make_unique<RelayAgent>(spec);
    case sim::AttackKind::kProbe:
      return std::make_unique<ProbeAgent>(spec);
    case sim::AttackKind::kOvershadow:
      return std::make_unique<OvershadowAgent>(spec);
  }
  return std::make_unique<EavesdropAgent>(spec);  // unreachable
}

AttackReport RunAttackScenario(const ScenarioConfig& scenario,
                               const sim::AttackSpec& spec) {
  return MakeAttackAgent(spec)->Execute(scenario);
}

}  // namespace wearlock::protocol
