#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace wearlock::crypto {
namespace {

inline std::uint32_t Rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

Sha1::Sha1() { Reset(); }

void Sha1::Reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buffer_len_ = 0;
  total_bits_ = 0;
  finalized_ = false;
}

void Sha1::Update(const std::uint8_t* data, std::size_t len) {
  if (finalized_) throw std::logic_error("Sha1: update after finalize");
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
}

void Sha1::Update(const std::vector<std::uint8_t>& data) {
  Update(data.data(), data.size());
}

Digest Sha1::Finalize() {
  if (finalized_) throw std::logic_error("Sha1: double finalize");
  const std::uint64_t bits = total_bits_;
  // Append 0x80 then zeros until 8 bytes remain in the block for length.
  const std::uint8_t pad = 0x80;
  Update(&pad, 1);
  const std::uint8_t zero = 0x00;
  while (buffer_len_ != 56) Update(&zero, 1);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  Update(len_be, 8);
  finalized_ = true;

  Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

void Sha1::ProcessBlock(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = Rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int t = 0; t < 80; ++t) {
    std::uint32_t f, k;
    if (t < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = Rotl(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = Rotl(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

Digest Sha1::Hash(const std::vector<std::uint8_t>& data) {
  Sha1 s;
  s.Update(data);
  return s.Finalize();
}

}  // namespace wearlock::crypto
