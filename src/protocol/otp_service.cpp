#include "protocol/otp_service.h"

#include <stdexcept>

#include "modem/modem.h"

namespace wearlock::protocol {

OtpService::OtpService(std::vector<std::uint8_t> key,
                       std::uint64_t initial_counter)
    : key_(std::move(key)), send_counter_(initial_counter) {
  if (key_.empty()) throw std::invalid_argument("OtpService: empty key");
}

std::uint32_t OtpService::TokenAt(std::uint64_t counter) const {
  return crypto::HotpValue(key_, counter);
}

std::vector<std::uint8_t> OtpService::NextTokenBits() {
  live_ = true;  // minting retires every earlier token
  return modem::BitsFromWord(TokenAt(send_counter_++));
}

TokenValidation OtpService::ValidateBits(const std::vector<std::uint8_t>& bits,
                                         double required_ber) {
  TokenValidation v;
  if (bits.size() != 32 || !live_) return v;  // malformed or nothing live
  v.matched_counter = send_counter_ - 1;
  v.expected_bits = modem::BitsFromWord(TokenAt(v.matched_counter));
  v.ber = modem::BitErrorRate(v.expected_bits, bits);
  if (v.ber <= required_ber) {
    v.accepted = true;
    live_ = false;  // one-time: the accepted token is burned
  }
  return v;
}

std::string OtpService::CurrentCode(unsigned digits) const {
  return crypto::HotpCode(key_, send_counter_, digits);
}

}  // namespace wearlock::protocol
