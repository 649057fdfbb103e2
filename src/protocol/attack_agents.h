// Channel-level attack agents: attacker devices as scheduled
// participants in the acoustic scene and wireless link. Each agent
// compiles one sim::AttackSpec into the AttackInjection hooks of an
// unlock attempt and drives a full UnlockSession against it, so every
// attack flows through the real modem/protocol chain rather than a
// shortcut model. Agents are deterministic: all attacker randomness
// comes from a seed-salted sim::Rng, so a (scenario, spec) pair replays
// byte-identically at any thread count - the property the security
// conformance matrix pins.
//
// The catalogue (docs/security.md):
//   eavesdrop  - passive listener at range with directional-mic gain,
//                attempting OTP recovery through the real demod chain.
//   replay     - record a legitimate Phase 2, relock, play it back
//                after a handling delay (the tape-recorder attacker).
//   relay      - live wormhole: pickup mic by the phone, amplifier,
//                emitter by the out-of-range watch (Ghost-and-Leech /
//                mafia fraud); defeated by acoustic distance bounding.
//   probe      - SonarSnoop-style active sonar: co-channel chirp energy
//                emitted during Phase 2 (disruption/recon, no forgery).
//   overshadow - AIC-style injection: a forged OFDM frame with guessed
//                token bits overpowering the legitimate one.
#pragma once

#include <optional>
#include <vector>

#include "obs/record.h"
#include "protocol/session.h"
#include "sim/adversary.h"

namespace wearlock::protocol {

/// The verdict of one attack scenario - what the victim's protocol run
/// decided, and whether the attacker gained anything from it.
struct AttackReport {
  sim::AttackSpec spec;
  /// The attacked protocol run's verdict (the defense's answer).
  UnlockOutcome victim_outcome = UnlockOutcome::kNoWirelessLink;
  bool victim_unlocked = false;
  /// THE security property: did the attacker obtain an unlock or a
  /// live credential? Must be false in every conformance-matrix cell.
  bool false_unlock = false;
  /// Eavesdrop only: on-air token decoded through the real demod chain
  /// (capability, expected physics at short range - audible sound
  /// carries). Only a LIVE credential counts as false_unlock: the
  /// recovery is re-presented to the victim validator post-attempt,
  /// where HOTP one-time semantics leave it stale.
  bool token_recovered = false;
  /// BER of the attacker's best token material vs the expected token
  /// (1.0 when the attacker never got as far as producing bits).
  double attacker_token_ber = 1.0;
  /// Median distance-bounding estimate, when the defense ran.
  std::optional<double> ranging_distance_m;
  /// Full report of the attacked session (the last one, for multi-pass
  /// agents like replay).
  UnlockReport victim_report;
  /// The adversary device's event trace (golden-trace material).
  std::vector<sim::AttackEvent> events;
  /// Telemetry rows scoring the ATTACKER's attempt: same_body=false and
  /// unlocked/false_accept = "the attacker won", so a TelemetrySink's
  /// FalseAcceptRate over these rows is the attacker success rate with
  /// its Wilson CI. Eavesdrop rows score token_recovered (the
  /// distance-decay capability curve); every other kind scores
  /// false_unlock. The victim verdict rides in `outcome`; timings and
  /// channel diagnostics are the attacked session's.
  std::vector<obs::SessionRecord> records;
};

/// Run the agent for `spec`'s archetype against a copy of `scenario`:
/// arm the injection hooks the spec calls for, run the attacked
/// session(s) and judge the attacker's success. Every agent yields
/// exactly one row in `records`.
[[nodiscard]] AttackReport RunAttackScenario(const ScenarioConfig& scenario,
                                             const sim::AttackSpec& spec);

}  // namespace wearlock::protocol
