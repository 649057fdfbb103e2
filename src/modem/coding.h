// Optional channel coding.
//
// The paper's rate formula R = |D| * rc * log2(M) / (Tg + Ts) carries a
// coding rate rc but the prototype ships uncoded (rc = 1); it also notes
// 16QAM "may need heavy error correction techniques" to be usable at
// all. This module supplies the two classic codes that statement implies:
//   * Hamming(7,4)  - rc = 4/7, corrects 1 bit error per 7-bit block
//   * Repetition-3  - rc = 1/3, majority vote
// plus an identity code for uniform call sites.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wearlock::modem {

enum class CodeScheme { kNone, kHamming74, kRepetition3 };

std::string ToString(CodeScheme scheme);

/// Coding rate rc (payload bits / coded bits).
double CodeRate(CodeScheme scheme);

/// Encode payload bits (values 0/1). Output length is a whole number of
/// code blocks; the tail is zero-padded before encoding.
std::vector<std::uint8_t> Encode(CodeScheme scheme,
                                 const std::vector<std::uint8_t>& bits);

/// Decode coded bits back to payload bits. Lengths that are not a whole
/// number of blocks are truncated to the last full block. The decode
/// corrects errors within each code's capability and returns its best
/// guess beyond that (no failure signaling - the OTP BER check is the
/// integrity layer).
std::vector<std::uint8_t> Decode(CodeScheme scheme,
                                 const std::vector<std::uint8_t>& coded);

/// Coded length for n payload bits (after padding).
std::size_t EncodedLength(CodeScheme scheme, std::size_t n_payload_bits);

/// Soft-decision decode from per-bit LLRs (positive = bit 0 likelier,
/// the convention of modem::DemapSymbolsSoftInto). Repetition sums LLRs per
/// triple; Hamming runs maximum-likelihood over the 16 codewords. kNone
/// hard-slices the signs.
std::vector<std::uint8_t> DecodeSoft(CodeScheme scheme,
                                     const std::vector<double>& llrs);

/// Block interleaver: the permutation that writes input bits row-major
/// into a `depth`-column matrix and reads it column-major, defined
/// directly on the index set so ANY length round-trips exactly (no
/// padding). A burst of adjacent on-air errors deinterleaves to coded
/// positions exactly `depth` apart, so with depth >= the code's block
/// length at most one burst error lands in each codeword. depth <= 1
/// (or >= n) degenerates to the identity.
std::vector<std::uint8_t> Interleave(const std::vector<std::uint8_t>& bits,
                                     std::size_t depth);

/// Exact inverse of Interleave for the same depth.
std::vector<std::uint8_t> Deinterleave(const std::vector<std::uint8_t>& bits,
                                       std::size_t depth);

/// Chase combining across retransmissions of the SAME payload: per-bit
/// LLRs (positive = bit 0 likelier, the DemapSymbolsSoftInto convention)
/// from each reception are summed element-wise before slicing or FEC
/// decoding. Under independent noise the combined LLR's SNR grows
/// linearly with the number of copies, so a retransmission at low SNR
/// rescues a delivery instead of starting blind - the receiver half of
/// the unlock protocol's ARQ (docs/robustness.md).
class SoftCombiner {
 public:
  /// Accumulate one reception's LLRs.
  /// @throws std::invalid_argument when the length differs from the
  /// first reception's (retransmissions carry the same payload).
  void Add(const std::vector<double>& llrs);

  /// Receptions combined so far.
  std::size_t rounds() const { return rounds_; }
  bool empty() const { return rounds_ == 0; }

  /// The running element-wise LLR sum (empty before the first Add).
  const std::vector<double>& combined() const { return sum_; }

  /// Hard decision on the combined LLRs (feed `combined()` to
  /// DecodeSoft instead when a channel code is in use).
  std::vector<std::uint8_t> HardBits() const;

 private:
  std::vector<double> sum_;
  std::size_t rounds_ = 0;
};

}  // namespace wearlock::modem
