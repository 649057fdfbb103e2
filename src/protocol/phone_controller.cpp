#include "protocol/phone_controller.h"

#include <algorithm>

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

sim::Millis BackoffMs(int attempt, sim::Millis base_ms, sim::Millis max_ms) {
  sim::Millis backoff = base_ms;
  for (int i = 0; i < attempt && backoff < max_ms; ++i) backoff *= 2.0;
  return std::min(backoff, max_ms);
}

}  // namespace wearlock::protocol
