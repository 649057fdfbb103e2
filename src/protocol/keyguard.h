// Android-Keyguard-style lock state machine with the paper's 3-strike
// policy ("The smartphone will be locked up after three consecutive
// failures, which makes the brutal force attack unrealistic").
#pragma once

#include <cstddef>

namespace wearlock::protocol {

enum class LockState {
  kLocked,     ///< normal locked state, WearLock may unlock
  kUnlocked,   ///< screen unlocked
  kLockedOut,  ///< too many failures: WearLock disabled, PIN required
};

class Keyguard {
 public:
  explicit Keyguard(std::size_t max_consecutive_failures = 3);

  LockState state() const { return state_; }
  // NOLINTNEXTLINE(test-only-export): lockout shows only the third strike.
  std::size_t consecutive_failures() const { return failures_; }

  /// A successful WearLock validation: unlock and reset the counter.
  /// No-op (stays locked out) when in kLockedOut.
  void ReportSuccess();

  /// A failed validation: count it; trips lockout at the limit.
  void ReportFailure();

  /// Screen re-locks (timeout / power button).
  void Relock();

  /// Manual credential entry (PIN) clears lockout and unlocks.
  void UnlockWithCredential();

  bool CanAttemptWearlock() const { return state_ == LockState::kLocked; }

 private:
  std::size_t max_failures_;
  std::size_t failures_ = 0;
  LockState state_ = LockState::kLocked;
};

}  // namespace wearlock::protocol
