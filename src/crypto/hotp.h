// HOTP: HMAC-based one-time password (RFC 4226), the token WearLock
// transmits over the acoustic channel (paper §IV).
//
// Token = DynamicTruncate(HMAC-SHA1(key, counter)) mod 10^Digit.
// WearLock actually sends the raw 31-bit truncated value as the acoustic
// payload (a "32 bits OTP" with 2^32 keyspace in the paper's discussion);
// the digit form exists for display/PIN-style fallback.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha1.h"

namespace wearlock::crypto {

/// Dynamic truncation per RFC 4226 §5.3: take the low 4 bits of the last
/// digest byte as an offset, read 4 bytes there, mask the sign bit.
std::uint32_t DynamicTruncate(const Digest& digest);

/// Raw truncated HOTP value (31 bits) for (key, counter).
std::uint32_t HotpValue(const std::vector<std::uint8_t>& key,
                        std::uint64_t counter);

/// Decimal HOTP code with `digits` digits (6..9 per RFC guidance, but any
/// 1..9 accepted). Zero-padded string.
/// @throws std::invalid_argument if digits is 0 or > 9.
std::string HotpCode(const std::vector<std::uint8_t>& key,
                     std::uint64_t counter, unsigned digits);

}  // namespace wearlock::crypto
