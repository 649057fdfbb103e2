// Phone-side protocol types: the PhoneConfig of an unlock attempt, the
// UnlockOutcome and UnlockReport it produces, and the AttackInjection
// hooks the attack agents drive. The attempt itself - the full Fig. 2
// protocol for one power-button press - is protocol/attempt_machine.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "audio/scene.h"
#include "modem/modem.h"
#include "protocol/distance_bounding.h"
#include "sim/clock.h"

namespace wearlock::protocol {

enum class UnlockOutcome {
  kUnlocked,
  kLockedOut,         ///< keyguard in 3-strike lockout, WearLock disabled
  kNoWirelessLink,    ///< first filter: no BT/WiFi link to the watch
  kNoPreamble,        ///< RTS probe not heard (out of range / blocked)
  kAmbientMismatch,   ///< noise similarity says "different rooms"
  kMotionMismatch,    ///< DTW score above d_h: devices move differently
  kInsufficientSnr,   ///< no transmission mode meets MaxBER at this SNR
  kNlosAborted,       ///< severe body blocking and policy says abort
  kTokenRejected,     ///< Phase 2 BER above the required bound
  kTimingViolation,   ///< acoustic path slower than physics allows: MITM
  kStageTimeout,      ///< a stage budget or the attempt deadline expired
  kLinkFlapped,       ///< link dropped mid-protocol and stayed down
  kRetriesExhausted,  ///< control message lost beyond the retry budget
  /// Acoustic ranging put the watch beyond the secure bound (or heard
  /// no chirp at all): relay/wormhole suspected. Fails closed.
  kDistanceBoundViolation,
  /// The acoustic channel itself is unusable - the MAC never found the
  /// band clear, or the hardened receiver kept losing sync past the
  /// degrade ladder's robust mode. Fails closed with no keyguard strike
  /// (an environmental condition, not a user mistake).
  kChannelUnusable,
};

std::string ToString(UnlockOutcome outcome);

/// The paper's operating point (§III-7 "How adaptive modulation
/// works"): the probe volume is set so that a receiver anywhere within
/// kSecureRangeM clears kSnrMinDb over the ambient noise.
inline constexpr double kSnrMinDb = 18.0;
inline constexpr double kSecureRangeM = 1.0;
/// OFDM frames are peak- not rms-normalized; their rms sits roughly this
/// far below a full-scale sine, and the volume rule compensates.
inline constexpr double kFramePaprDb = 15.0;
/// The receive-side face of the same rule: WearLock has no explicit
/// ranging, so a pilot SNR below what a receiver *at* kSecureRangeM
/// would measure (given the volume actually used) means the recorder
/// sits beyond the secure range - abort instead of adapting the
/// modulation down to reach it ("if a receiver falls within this range,
/// it will be able to receive the signal which is beyond the minimal
/// SNR"). The expected value is computed from the achieved transmit SPL;
/// this offset converts the broadband SPL arithmetic into the pilot-SNR
/// domain (calibrated on the default plan).
inline constexpr double kPilotSnrDomainOffsetDb = 6.5;
/// Absolute floor on the range gate (saturated-volume loud rooms).
inline constexpr double kMinPilotSnrFloorDb = 2.0;
/// Gate relief when the legitimate user's own body blocks the path
/// (detected NLOS under kRelaxMaxBer; the case study's scenario).
inline constexpr double kNlosGateReliefDb = 12.0;
/// MaxBER used when the motion filter says "same body, high confidence"
/// under SensorSkipPolicy::kRelaxMaxBer.
inline constexpr double kSensorRelaxedBer = 0.15;
/// The case study relaxes required BER to 0.25 for detected-NLOS cases.
inline constexpr double kNlosRelaxedBer = 0.25;
/// Replay defense: tolerated slack between expected and observed
/// acoustic-phase latency (software stack + wireless RTT variance).
inline constexpr sim::Millis kTimingSlackMs = 350.0;

// Timeout, retry and degradation policy for one unlock attempt. All
// waits are charged to the virtual clock; all budgets are virtual time,
// so a faulted attempt still terminates with a defined outcome before
// kTotalDeadlineMs (docs/robustness.md).

/// A control message unacknowledged past this is presumed lost.
inline constexpr sim::Millis kMessageTimeoutMs = 600.0;
/// Per-stage budget (RTS/CTS, Phase-1 upload, Phase-2 exchange).
inline constexpr sim::Millis kStageBudgetMs = 6000.0;
/// Hard ceiling on one attempt - the user is standing at the
/// lockscreen; past this we fail with kStageTimeout no matter what.
inline constexpr sim::Millis kTotalDeadlineMs = 20000.0;
/// Retransmissions per control message before kRetriesExhausted.
inline constexpr int kMaxMessageRetries = 3;
/// Extra RTS probe emissions when the watch hears no preamble.
inline constexpr int kMaxProbeRetransmits = 1;
/// Extra Phase-2 OTP frame transmissions (chase-combined).
inline constexpr int kMaxPhase2Retransmits = 2;
/// Bounded exponential backoff between retransmissions and between
/// press-and-retry attempts.
inline constexpr sim::Millis kRetryBackoffBaseMs = 50.0;
inline constexpr sim::Millis kRetryBackoffMaxMs = 800.0;
/// Degrade ladder: after this many link faults in one attempt, stop
/// offloading and fall back to watch-local processing.
inline constexpr int kDegradeAfterLinkFaults = 2;

// Listen-before-talk on the acoustic band (docs/channels.md). Before
// emitting the probe or a Phase-2 frame in a contended scene, the phone
// senses the band through its own mic (SenseChannel); a busy verdict
// defers the emission with bounded-exponential backoff on modeled time.
// Engages only when channel impairments are armed with contending
// pairs, so clean-scene sessions never consult it (or the scene's
// draws).

/// Sense-window length (samples of self-recorded ambient).
inline constexpr std::size_t kMacSenseWindowSamples = 1024;
/// Bounded exponential backoff between sense attempts.
inline constexpr sim::Millis kMacBackoffBaseMs = 80.0;
inline constexpr sim::Millis kMacBackoffMaxMs = 1280.0;
/// Sense attempts before declaring the channel unusable.
inline constexpr int kMacMaxAttempts = 6;

// Receiver hardening against crowded-world channel impairments
// (audio/impairments.h; model and math in docs/channels.md). Every
// branch is gated on the scene actually having impairments armed, so
// the clean-channel protocol path - and all its goldens - is
// byte-identical whether hardening is enabled or not.

/// Extra capture the watch tacks onto its nominal window so a
/// drift-shifted frame keeps its tail (covers the accumulated clock
/// offset of ~130 ppm SRO at audio::kClockAgeS).
inline constexpr std::size_t kRxWindowGuardSamples = 8192;
/// Measured warp below this is left uncompensated (resampling a clean
/// capture only adds interpolation noise).
inline constexpr double kMinCompensatePpm = 200.0;
/// After this many sync failures in one attempt, mode adaptation is
/// restricted to the most robust low-rate constellations.
inline constexpr int kRobustAfterSyncFailures = 2;

// The relay defense's schedule (docs/security.md); the ranging itself
// is protocol/distance_bounding.h.

/// Ranging rounds per attempt; the median estimate is judged.
inline constexpr int kRangingRounds = 3;
/// Seed for the ranging-noise Rng (mixed with the session id, so
/// retries draw fresh noise), kept off the scene stream so enabling the
/// defense never perturbs the scene draws of a given scenario seed.
/// Estimates are a pure function of (this seed, session id).
inline constexpr std::uint64_t kRangingSeed = 0xD157B0D5ULL;

/// Bounded exponential backoff: min(max_ms, base_ms * 2^attempt), the
/// one ladder behind ARQ retransmissions, press-and-retry rounds and
/// the acoustic MAC's deferrals.
[[nodiscard]] sim::Millis BackoffMs(int attempt, sim::Millis base_ms,
                                    sim::Millis max_ms);

/// What to do when the motion filter reports strong co-location
/// (score < d_l). Algorithm 1 says "skip second phase"; the evaluation
/// also mentions relaxing MaxBER instead. Both are supported.
enum class SensorSkipPolicy { kSkipSecondPhase, kRelaxMaxBer };

enum class NlosPolicy { kAbort, kRelaxMaxBer };

/// What a deployment, a bench or a CLI chooses for the phone side of an
/// attempt; everything else about the protocol is a constant above.
struct PhoneConfig {
  modem::FrameSpec frame{};
  SensorSkipPolicy sensor_policy = SensorSkipPolicy::kRelaxMaxBer;
  NlosPolicy nlos_policy = NlosPolicy::kRelaxMaxBer;
  bool enable_sensor_filter = true;
  /// Measurement-campaign mode (the paper's Table I procedure): transmit
  /// even when no mode meets MaxBER or the secure-range gate fails, using
  /// the most robust candidate, and report the resulting BER. Deployments
  /// keep this off; benches that reproduce the paper's field measurements
  /// turn it on.
  bool force_transmit = false;
  /// The relay defense (docs/security.md): Brands-Chaum-style acoustic
  /// round-trip ranging run after the range gate and before any Phase-2
  /// shortcut. Off by default - enabling it consumes scene draws, so the
  /// fault/modem goldens pin the defense-off acoustics; security configs
  /// turn it on explicitly.
  bool enable_distance_bounding = false;
  /// Sum per-bit LLRs across Phase-2 retransmissions before the final
  /// decision (chase combining) instead of judging each copy alone.
  bool enable_chase_combining = true;
  /// Crowded-world hardening: drift tracking, acoustic MAC, carrier-
  /// sense sub-band reselection, extended degrade ladder. Inert unless
  /// the scene has channel impairments armed.
  bool enable_channel_hardening = true;

  /// Ambient window the phone self-records before probing (seconds).
  static constexpr double ambient_window_s = 0.10;
};

struct PhaseTimings {
  sim::Millis phase1_audio_ms = 0.0;
  sim::Millis phase1_comm_ms = 0.0;
  sim::Millis phase1_compute_ms = 0.0;
  sim::Millis phase2_audio_ms = 0.0;
  sim::Millis phase2_comm_ms = 0.0;
  sim::Millis phase2_compute_ms = 0.0;

  sim::Millis total_ms() const {
    return phase1_audio_ms + phase1_comm_ms + phase1_compute_ms +
           phase2_audio_ms + phase2_comm_ms + phase2_compute_ms;
  }
};

/// One protocol step for post-mortems/telemetry: what ran, what it
/// measured, how long it took.
struct TraceEvent {
  std::string step;       ///< e.g. "probe-tx", "motion-filter"
  std::string detail;     ///< human-readable measurement
  sim::Millis at_ms = 0;  ///< virtual time when the step completed
};

struct UnlockReport {
  UnlockOutcome outcome = UnlockOutcome::kNoWirelessLink;
  bool unlocked = false;
  // Phase 1 diagnostics.
  double probe_volume = 0.0;
  double ambient_spl_db = 0.0;
  double preamble_score = 0.0;
  double ambient_similarity = 0.0;
  std::optional<double> dtw_score;
  bool nlos = false;
  double pilot_snr_db = -100.0;
  // Adaptation results.
  std::optional<modem::Modulation> mode;
  double ebn0_db = -100.0;
  double required_ber = 0.0;
  modem::SubchannelPlan plan;
  // Phase 2 results.
  double token_ber = 1.0;
  /// Present when the attack injection asked for an eavesdropper tap.
  std::optional<audio::Samples> eavesdropped_recording;
  /// Median distance-bounding estimate, when the defense ran.
  std::optional<double> ranging_distance_m;
  // Costs.
  PhaseTimings timings;
  double watch_energy_mj = 0.0;
  double phone_energy_mj = 0.0;
  /// Ordered step log of the attempt.
  std::vector<TraceEvent> trace;
};

/// Hook for injecting acoustic-path manipulation. The attack agents
/// (attack_agents.h) assemble these from a sim::AttackSpec.
struct AttackInjection {
  sim::Millis extra_acoustic_delay_ms = 0.0;
  /// When set, this recording replaces what the watch heard in Phase 2
  /// (a replayed capture of an earlier session).
  std::optional<audio::Samples> replayed_phase2_recording;
  /// When set, an eavesdropper records Phase 2 from this distance; the
  /// capture lands in UnlockReport (material for a later replay).
  std::optional<double> eavesdrop_distance_m;
  /// Directional-mic gain (dB) on the eavesdropper's capture chain.
  double eavesdrop_gain_db = 0.0;
  /// Live splice on the phone->watch acoustic path: when set, every
  /// phone emission the watch should hear (RTS probe, ranging chirps,
  /// Phase-2 data) arrives through this transform instead of the
  /// scene's direct rendering - the relay attacker's hook. The splice
  /// keeps the scene's alignment convention (emission time zero at
  /// audio::kLeadInSamples), so attacker-added latency lands as a later
  /// signal offset - which is what the timing defenses measure.
  AcousticSplice channel_splice;
  /// Additive co-channel pressure mixed into the watch's Phase-2
  /// capture, sample 0 aligned with the capture's sample 0 (SonarSnoop
  /// probe energy, AIC-style overshadowing frame), rendered from the
  /// probe volume once per attempt; every ARQ round mixes it.
  std::function<audio::Samples(double probe_volume)> phase2_interference;
  /// Extra arrival latency the attacker's path imposes on the
  /// distance-bounding chirps when no full splice is wired (e.g. the
  /// replayed session's handling delay).
  sim::Millis ranging_extra_delay_ms = 0.0;
};

}  // namespace wearlock::protocol
