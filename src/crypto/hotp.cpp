#include "crypto/hotp.h"

#include <stdexcept>

#include "crypto/hmac.h"

namespace wearlock::crypto {
namespace {

std::vector<std::uint8_t> CounterBytes(std::uint64_t counter) {
  std::vector<std::uint8_t> c(8);
  for (int i = 0; i < 8; ++i) {
    c[i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
  }
  return c;
}

}  // namespace

std::uint32_t DynamicTruncate(const Digest& digest) {
  const unsigned offset = digest[19] & 0x0F;
  return (static_cast<std::uint32_t>(digest[offset] & 0x7F) << 24) |
         (static_cast<std::uint32_t>(digest[offset + 1]) << 16) |
         (static_cast<std::uint32_t>(digest[offset + 2]) << 8) |
         static_cast<std::uint32_t>(digest[offset + 3]);
}

std::uint32_t HotpValue(const std::vector<std::uint8_t>& key,
                        std::uint64_t counter) {
  return DynamicTruncate(HmacSha1(key, CounterBytes(counter)));
}

std::string HotpCode(const std::vector<std::uint8_t>& key,
                     std::uint64_t counter, unsigned digits) {
  if (digits == 0 || digits > 9) {
    throw std::invalid_argument("HotpCode: digits must be in [1, 9]");
  }
  std::uint32_t mod = 1;
  for (unsigned i = 0; i < digits; ++i) mod *= 10;
  const std::uint32_t value = HotpValue(key, counter) % mod;
  std::string s = std::to_string(value);
  return std::string(digits - s.size(), '0') + s;
}

}  // namespace wearlock::crypto
