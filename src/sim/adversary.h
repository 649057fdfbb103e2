// Deterministic adversary machinery for the security matrix.
//
// The paper's security argument (§IV) is range-bounded acoustics; to
// *test* it, attackers have to be scheduled participants in the same
// simulation the legitimate devices run in - drawing from seed-forked
// Rngs, stamping events on the session's virtual clock, and replaying
// bit-identically under the same seed (the contract
// tests/security_matrix_test.cpp pins, mirroring sim/faults.h).
//
// This module is the channel-agnostic half: the attack grammar, the
// attack event trace, and the AdversaryDevice (the attacker's recorder/
// replayer state). The acoustic agents that splice these devices into
// audio::TwoMicScene live one layer up, in protocol/attack_agents.h -
// the sim layer stays a leaf of the layer DAG.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"

namespace wearlock::sim {

/// Speed of sound in air at room temperature (m/s). The one definition:
/// sim sits below audio in the layer DAG, so the channel model reads it
/// from here. Distance bounding leans on this being a physical constant
/// no attacker can beat: a relay only ever *adds* path.
inline constexpr double kSpeedOfSoundMps = 343.0;

enum class AttackKind {
  kEavesdrop,   ///< passive capture at range with high-gain gear
  kReplay,      ///< record a session, replay it to a later one
  kRelay,       ///< live capture-amplify-re-emit bridge (wormhole)
  kProbe,       ///< SonarSnoop-style active co-channel probing
  kOvershadow,  ///< AIC-style frame injection over the legit signal
};

std::string ToString(AttackKind kind);

/// Declarative description of one attack - the security matrix's
/// row axis, parseable from the CLI like sim::FaultPlan.
struct AttackSpec {
  AttackKind kind = AttackKind::kEavesdrop;
  /// Attacker standoff from the phone (eavesdrop/probe/overshadow and
  /// the replay capture position), or the phone->watch span the relay
  /// bridges.
  double distance_m = 2.0;
  /// Directional-mic / amplifier gain on the attacker's capture chain.
  double gain_db = 0.0;
  /// Processing latency the attacker's electronics add: replay handling
  /// time, or the relay's capture-transport-re-emit latency per pass.
  Millis handling_delay_ms = 0.0;
  /// Emission level relative to the legitimate transmit volume
  /// (probe/overshadow).
  double level = 1.0;
  /// The CLI-grammar spec this was parsed from ("" for specs built
  /// field-by-field); retained verbatim so telemetry records can carry
  /// the attack axis of their cohort key.
  std::string spec;

  /// True for a default-constructed spec: no attack configured.
  bool empty() const { return spec.empty(); }

  /// Parse a CLI-style spec: KIND[@DISTANCE][:key=value]... where KIND
  /// is eavesdrop|replay|relay|probe|overshadow and keys are
  ///   gain=DB | delay=MS | level=L
  /// e.g. "eavesdrop@2.0:gain=20", "relay@3:delay=3:gain=40".
  /// @throws std::invalid_argument on malformed entries or
  /// out-of-range values.
  [[nodiscard]] static AttackSpec Parse(const std::string& spec);
};

/// One attacker action, stamped with the virtual time it happened; the
/// ordered event list is the session's attack trace (the committed
/// golden traces in tests/golden/ pin it).
struct AttackEvent {
  AttackKind kind = AttackKind::kEavesdrop;
  std::string stage;
  Millis at_ms = 0.0;
  /// Stage-specific magnitude (capture samples, delay ms, recovered-
  /// token BER, estimated distance); 0 when the stage carries none.
  double value = 0.0;
};

/// Serialize an attack trace as JSONL (one event object per line) -
/// same shape as sim::FaultTraceJsonl, validated by json_check.h.
std::string AttackTraceJsonl(const std::vector<AttackEvent>& events);

/// The attacker's device state: a seed-forked Rng (so attacker noise is
/// part of the deterministic replay), the victim session's virtual
/// clock for event stamps, a capture tape, and the ordered event trace.
/// Not thread-safe: one device belongs to one attack scenario, like the
/// session's Rng.
class AdversaryDevice {
 public:
  /// @param rng forked from the scenario seed *after* the victim
  /// session's forks, so arming an attack never perturbs the
  /// legitimate acoustics of the same seed.
  /// @param clock the victim session's virtual clock. Must outlive the
  /// device.
  AdversaryDevice(AttackSpec spec, Rng rng, VirtualClock* clock);

  /// Append a stamped event to the attack trace.
  void Record(const std::string& stage, double value);

  /// Store one capture on the tape (record-and-replay material).
  void StoreCapture(std::vector<double> samples);

  /// The most recent capture. Precondition: a capture was stored.
  const std::vector<double>& LastCapture() const { return tape_.back(); }

  /// One-way acoustic path delay over `distance_m` of air - what any
  /// relay pays on top of its electronics.
  static Millis PathDelayMs(double distance_m) {
    return distance_m / kSpeedOfSoundMps * 1000.0;
  }

  const AttackSpec& spec() const { return spec_; }
  Rng& rng() { return rng_; }
  const std::vector<AttackEvent>& events() const { return events_; }

 private:
  AttackSpec spec_;
  Rng rng_;
  VirtualClock* clock_;
  std::vector<std::vector<double>> tape_;
  std::vector<AttackEvent> events_;
};

}  // namespace wearlock::sim
