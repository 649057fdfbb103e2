// HMAC-SHA1 (RFC 2104), the keyed MAC underlying the HOTP tokens.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha1.h"

namespace wearlock::crypto {

/// HMAC-SHA1(key, message). Keys longer than the 64-byte block are
/// hashed first, per RFC 2104.
Digest HmacSha1(const std::vector<std::uint8_t>& key,
                const std::vector<std::uint8_t>& message);

}  // namespace wearlock::crypto
