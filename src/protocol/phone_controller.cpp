#include "protocol/phone_controller.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "protocol/attempt_machine.h"

namespace wearlock::protocol {

std::string ToString(UnlockOutcome outcome) {
  switch (outcome) {
    case UnlockOutcome::kUnlocked: return "unlocked";
    case UnlockOutcome::kLockedOut: return "locked-out";
    case UnlockOutcome::kNoWirelessLink: return "no-wireless-link";
    case UnlockOutcome::kNoPreamble: return "no-preamble";
    case UnlockOutcome::kAmbientMismatch: return "ambient-mismatch";
    case UnlockOutcome::kMotionMismatch: return "motion-mismatch";
    case UnlockOutcome::kInsufficientSnr: return "insufficient-snr";
    case UnlockOutcome::kNlosAborted: return "nlos-aborted";
    case UnlockOutcome::kTokenRejected: return "token-rejected";
    case UnlockOutcome::kTimingViolation: return "timing-violation";
    case UnlockOutcome::kStageTimeout: return "stage-timeout";
    case UnlockOutcome::kLinkFlapped: return "link-flapped";
    case UnlockOutcome::kRetriesExhausted: return "retries-exhausted";
    case UnlockOutcome::kDistanceBoundViolation:
      return "distance-bound-violation";
    case UnlockOutcome::kChannelUnusable: return "channel-unusable";
  }
  return "?";
}

sim::Millis ResilienceConfig::BackoffMs(int attempt) const {
  sim::Millis backoff = backoff_base_ms;
  for (int i = 0; i < attempt && backoff < backoff_max_ms; ++i) backoff *= 2.0;
  return std::min(backoff, backoff_max_ms);
}

sim::Millis AcousticMacConfig::BackoffMs(int attempt) const {
  sim::Millis backoff = backoff_base_ms;
  for (int i = 0; i < attempt && backoff < backoff_max_ms; ++i) backoff *= 2.0;
  return std::min(backoff, backoff_max_ms);
}

PhoneController::PhoneController(PhoneConfig config, OtpService* otp,
                                 Keyguard* keyguard)
    : config_(config), otp_(otp), keyguard_(keyguard) {
  config_.frame.plan.Validate();
}

std::unique_ptr<AttemptMachine> PhoneController::StartAttempt(
    sim::EventQueue& queue, audio::TwoMicScene& scene, WatchController& watch,
    sim::WirelessLink& link, const sensors::MotionPair& motion,
    const OffloadPlanner& offload, sim::VirtualClock& clock,
    const AttackInjection& attack, sim::FaultInjector* faults,
    AttemptHooks hooks) {
  auto machine = std::make_unique<AttemptMachine>(
      config_, otp_, keyguard_, next_session_id_++, scene, watch, link, motion,
      offload, clock, attack, faults, queue, std::move(hooks));
  machine->Start();
  return machine;
}

}  // namespace wearlock::protocol
