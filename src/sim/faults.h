// Deterministic fault injection for the control channel and the
// acoustic capture path.
//
// Real WearLock deployments see lossy links: Bluetooth flaps
// mid-protocol, MessageAPI deliveries vanish or stall, the watch app
// gets killed halfway through a recording. The paper hides this behind
// "the participant pressed the button again"; a production protocol
// has to time out, retry and degrade instead. This module supplies the
// adversary half of that story: a FaultPlan describes which failures
// to inject, and a FaultInjector executes them - every decision drawn
// from a seed-forked Rng and every outage scheduled on the virtual
// clock, so a failure sequence replays bit-identically under the same
// seed (the property tests/fault_matrix_test.cpp pins).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"
#include "sim/wireless.h"

namespace wearlock::sim {

enum class FaultKind {
  kMessageDrop,        ///< control message silently lost
  kMessageDuplicate,   ///< delivered twice (receiver must dedup)
  kDelaySpike,         ///< delivery stalls by a multiplier
  kLinkFlap,           ///< link drops mid-protocol
  kLinkRecover,        ///< flapped link comes back up
  kRecordingTruncate,  ///< capture cut short (app killed mid-record)
  kRecordingClip,      ///< capture hard-clipped (broken AGC)
  kRecordingDrop,      ///< capture lost entirely
};

std::string ToString(FaultKind kind);

/// Declarative description of what to inject. Defaults are all-off; a
/// default FaultPlan makes the injector a transparent pass-through.
struct FaultPlan {
  /// P(drop) per control message.
  double message_drop_p = 0.0;
  /// P(duplicate delivery) per control message.
  double message_dup_p = 0.0;
  /// P(delay spike) per delivered message, and its latency multiplier.
  double delay_spike_p = 0.0;
  double delay_spike_mult = 8.0;
  /// Flap the link at the first link operation of this stage ("rts",
  /// "p1-upload", "p2-config", "p2-upload", "p2-result", or "any";
  /// empty = never). The outage lasts flap_down_ms of virtual time.
  std::string flap_stage;
  Millis flap_down_ms = 500.0;
  /// Keep-fraction for watch recordings; < 1 truncates every capture.
  double recording_truncate_keep = 1.0;
  /// Hard-clip level for watch recordings; > 0 enables.
  double recording_clip_level = 0.0;
  /// P(recording lost entirely) per capture.
  double recording_drop_p = 0.0;
  /// The CLI-grammar spec this plan was parsed from ("" for plans
  /// built field-by-field). Retained verbatim so telemetry records
  /// can carry the fault axis of their cohort key without
  /// re-serializing the plan.
  std::string spec;

  bool empty() const;

  /// Parse a CLI-style spec: comma-separated entries of
  ///   drop=P | dup=P | spike=P[xM] | flap@STAGE[:MS] | trunc=F |
  ///   clip=L | recdrop=P
  /// e.g. "drop=0.3,flap@rts,trunc=0.5".
  /// @throws std::invalid_argument on malformed entries or
  /// out-of-range values.
  [[nodiscard]] static FaultPlan Parse(const std::string& spec);
};

/// One injected fault, stamped with the virtual time it happened; the
/// ordered event list is the session's fault trace.
struct FaultEvent {
  FaultKind kind = FaultKind::kMessageDrop;
  std::string stage;
  Millis at_ms = 0.0;
  /// Kind-specific magnitude (spiked delay ms, samples kept, clip
  /// level, outage ms); 0 when the kind carries no magnitude.
  double value = 0.0;
};

/// Serialize a fault trace as JSONL (one event object per line) - the
/// format the committed golden trace pins and json_check.h validates.
std::string FaultTraceJsonl(const std::vector<FaultEvent>& events);

/// Executes a FaultPlan against one session. Not thread-safe: one
/// injector belongs to one session, like the session's Rng.
class FaultInjector {
 public:
  /// @param rng forked from the session seed (so the failure sequence
  /// is part of the session's deterministic replay).
  /// @param clock the session's virtual clock; outages are scheduled
  /// against it. Must outlive the injector.
  FaultInjector(FaultPlan plan, Rng rng, VirtualClock* clock);

  enum class SendStatus {
    kDelivered,  ///< arrived after delay_ms (maybe duplicated)
    kDropped,    ///< lost; the sender sees only its own timeout
    kLinkDown,   ///< link down (pre-existing or flapped right now)
  };

  struct SendResult {
    SendStatus status = SendStatus::kDelivered;
    Millis delay_ms = 0.0;
    bool duplicated = false;
  };

  /// A control message through the link with faults applied.
  SendResult SendMessage(WirelessLink& link, const std::string& stage);

  /// A bulk transfer through the link with faults applied.
  SendResult SendFile(WirelessLink& link, std::size_t bytes,
                      const std::string& stage);

  /// Apply capture faults in place. Returns true when the recording
  /// was dropped entirely (cleared); truncation/clipping return false.
  bool MutateRecording(const std::string& stage,
                       std::vector<double>* recording);

  /// Bring a flapped link back up once the scheduled outage has
  /// elapsed on the virtual clock. Callers waiting out an outage
  /// advance the clock, then poll this.
  void MaybeReconnect(WirelessLink& link);

  /// True while a flap outage is in progress (recovery scheduled).
  bool flap_down() const { return flap_down_; }
  Millis reconnect_at_ms() const { return reconnect_at_ms_; }

  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  bool ShouldFlap(const std::string& stage);
  void Record(FaultKind kind, const std::string& stage, double value);

  FaultPlan plan_;
  Rng rng_;
  VirtualClock* clock_;
  bool flap_fired_ = false;
  bool flap_down_ = false;
  Millis reconnect_at_ms_ = 0.0;
  std::vector<FaultEvent> events_;
};

}  // namespace wearlock::sim
