// SHA-1 (FIPS 180-1), implemented from scratch for the HOTP token scheme.
//
// SHA-1 is cryptographically broken for collision resistance, but RFC 4226
// HOTP (what the paper uses, §IV "One Time Password") depends only on
// HMAC-SHA-1's PRF property, which remains acceptable for OTPs.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace wearlock::crypto {

using Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 hasher.
class Sha1 {
 public:
  Sha1();

  /// Absorb `len` bytes.
  void Update(const std::uint8_t* data, std::size_t len);
  void Update(const std::vector<std::uint8_t>& data);

  /// Finalize and return the 160-bit digest. The hasher must not be
  /// updated afterwards (call Reset to reuse).
  Digest Finalize();

  /// Restore initial state.
  void Reset();

  /// One-shot convenience.
  static Digest Hash(const std::vector<std::uint8_t>& data);

 private:
  void ProcessBlock(const std::uint8_t* block);

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finalized_ = false;
};

}  // namespace wearlock::crypto
