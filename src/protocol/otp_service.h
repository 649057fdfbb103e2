// OTP service (paper §IV): RFC 4226 HOTP tokens over the acoustic
// channel.
//
// The phone generates the token and transmits it acoustically; the
// *phone* also validates what came back from the watch's recording, so
// validation is a BER comparison against the expected token rather
// than an exact match - the acoustic loop proves the watch heard *this*
// token *now*, bounding proximity. Freshness comes from the counter:
// only the most recently minted token is live, so a replayed recording
// encodes a retired counter's token and fails - even when the attempt
// that token was minted for never validated it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hotp.h"

namespace wearlock::protocol {

struct TokenValidation {
  bool accepted = false;
  double ber = 1.0;                 ///< BER against the live token
  std::uint64_t matched_counter = 0;
  /// Bits of the live token (empty when the payload was malformed or no
  /// token was live). Lets telemetry attribute bit errors to the
  /// sub-channels that carried them.
  std::vector<std::uint8_t> expected_bits;
};

/// Phone-side token authority: one shared key and a send counter. The
/// phone both mints and validates its tokens, so exactly one token - the
/// most recently minted - is ever live.
class OtpService {
 public:
  /// @param key shared secret negotiated over the wireless channel.
  explicit OtpService(std::vector<std::uint8_t> key,
                      std::uint64_t initial_counter = 0);

  /// Bits of the next token to transmit (advances the counter). Minting
  /// retires every earlier token, validated or not.
  std::vector<std::uint8_t> NextTokenBits();

  /// Validate demodulated bits against the live token: accepted if their
  /// BER is <= required_ber. Acceptance burns the token (one-time
  /// semantics), after which nothing validates until the next mint.
  TokenValidation ValidateBits(const std::vector<std::uint8_t>& bits,
                               double required_ber);

  /// The 6-digit human-readable form of the current token (fallback
  /// display / debugging).
  std::string CurrentCode(unsigned digits = 6) const;

 private:
  std::uint32_t TokenAt(std::uint64_t counter) const;

  std::vector<std::uint8_t> key_;
  std::uint64_t send_counter_;
  /// Whether the token at send_counter_ - 1 is minted and not yet burned.
  bool live_ = false;
};

}  // namespace wearlock::protocol
