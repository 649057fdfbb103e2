#include "modem/coding.h"

#include <stdexcept>

#include "obs/instrument.h"

namespace wearlock::modem {
namespace {

// Hamming(7,4) generator: codeword = [d1 d2 d3 d4 p1 p2 p3] with
//   p1 = d1^d2^d4, p2 = d1^d3^d4, p3 = d2^d3^d4.
void EncodeHammingBlock(const std::uint8_t* d, std::vector<std::uint8_t>& out) {
  const std::uint8_t d1 = d[0] & 1, d2 = d[1] & 1, d3 = d[2] & 1, d4 = d[3] & 1;
  out.push_back(d1);
  out.push_back(d2);
  out.push_back(d3);
  out.push_back(d4);
  out.push_back(static_cast<std::uint8_t>(d1 ^ d2 ^ d4));
  out.push_back(static_cast<std::uint8_t>(d1 ^ d3 ^ d4));
  out.push_back(static_cast<std::uint8_t>(d2 ^ d3 ^ d4));
}

void DecodeHammingBlock(const std::uint8_t* c, std::vector<std::uint8_t>& out) {
  std::uint8_t w[7];
  for (int i = 0; i < 7; ++i) w[i] = c[i] & 1;
  // Syndrome bits identify the flipped position (if exactly one).
  const std::uint8_t s1 = static_cast<std::uint8_t>(w[0] ^ w[1] ^ w[3] ^ w[4]);
  const std::uint8_t s2 = static_cast<std::uint8_t>(w[0] ^ w[2] ^ w[3] ^ w[5]);
  const std::uint8_t s3 = static_cast<std::uint8_t>(w[1] ^ w[2] ^ w[3] ^ w[6]);
  // Map syndrome -> bit index in [d1 d2 d3 d4 p1 p2 p3].
  static constexpr int kSyndromeToBit[8] = {
      // s3 s2 s1 packed as (s3<<2)|(s2<<1)|s1
      -1,  // 000: no error
      4,   // 001: p1
      5,   // 010: p2
      0,   // 011: d1
      6,   // 100: p3
      1,   // 101: d2
      2,   // 110: d3
      3,   // 111: d4
  };
  const int flipped = kSyndromeToBit[(s3 << 2) | (s2 << 1) | s1];
  if (flipped >= 0) w[flipped] ^= 1;
  out.push_back(w[0]);
  out.push_back(w[1]);
  out.push_back(w[2]);
  out.push_back(w[3]);
}

}  // namespace

std::string ToString(CodeScheme scheme) {
  switch (scheme) {
    case CodeScheme::kNone: return "uncoded";
    case CodeScheme::kHamming74: return "Hamming(7,4)";
    case CodeScheme::kRepetition3: return "repetition-3";
  }
  return "?";
}

double CodeRate(CodeScheme scheme) {
  switch (scheme) {
    case CodeScheme::kNone: return 1.0;
    case CodeScheme::kHamming74: return 4.0 / 7.0;
    case CodeScheme::kRepetition3: return 1.0 / 3.0;
  }
  throw std::invalid_argument("CodeRate: unknown scheme");
}

std::size_t EncodedLength(CodeScheme scheme, std::size_t n) {
  switch (scheme) {
    case CodeScheme::kNone: return n;
    case CodeScheme::kHamming74: return (n + 3) / 4 * 7;
    case CodeScheme::kRepetition3: return n * 3;
  }
  throw std::invalid_argument("EncodedLength: unknown scheme");
}

std::vector<std::uint8_t> Encode(CodeScheme scheme,
                                 const std::vector<std::uint8_t>& bits) {
  switch (scheme) {
    case CodeScheme::kNone:
      return bits;
    case CodeScheme::kHamming74: {
      std::vector<std::uint8_t> padded = bits;
      while (padded.size() % 4 != 0) padded.push_back(0);
      std::vector<std::uint8_t> out;
      out.reserve(padded.size() / 4 * 7);
      for (std::size_t i = 0; i < padded.size(); i += 4) {
        EncodeHammingBlock(&padded[i], out);
      }
      return out;
    }
    case CodeScheme::kRepetition3: {
      std::vector<std::uint8_t> out;
      out.reserve(bits.size() * 3);
      for (std::uint8_t b : bits) {
        out.push_back(b & 1);
        out.push_back(b & 1);
        out.push_back(b & 1);
      }
      return out;
    }
  }
  throw std::invalid_argument("Encode: unknown scheme");
}

std::vector<std::uint8_t> Decode(CodeScheme scheme,
                                 const std::vector<std::uint8_t>& coded) {
  WL_SPAN("modem.decode");
  WL_COUNT("modem.decode.calls");
  WL_COUNT_N("modem.decode.coded_bits", coded.size());
  switch (scheme) {
    case CodeScheme::kNone:
      return coded;
    case CodeScheme::kHamming74: {
      std::vector<std::uint8_t> out;
      out.reserve(coded.size() / 7 * 4);
      for (std::size_t i = 0; i + 7 <= coded.size(); i += 7) {
        DecodeHammingBlock(&coded[i], out);
      }
      return out;
    }
    case CodeScheme::kRepetition3: {
      std::vector<std::uint8_t> out;
      out.reserve(coded.size() / 3);
      for (std::size_t i = 0; i + 3 <= coded.size(); i += 3) {
        const int votes = (coded[i] & 1) + (coded[i + 1] & 1) + (coded[i + 2] & 1);
        out.push_back(votes >= 2 ? 1 : 0);
      }
      return out;
    }
  }
  throw std::invalid_argument("Decode: unknown scheme");
}

std::vector<std::uint8_t> DecodeSoft(CodeScheme scheme,
                                     const std::vector<double>& llrs) {
  WL_SPAN("modem.decode_soft");
  WL_COUNT("modem.decode_soft.calls");
  switch (scheme) {
    case CodeScheme::kNone: {
      std::vector<std::uint8_t> out;
      out.reserve(llrs.size());
      for (double l : llrs) out.push_back(l < 0.0 ? 1 : 0);
      return out;
    }
    case CodeScheme::kRepetition3: {
      std::vector<std::uint8_t> out;
      out.reserve(llrs.size() / 3);
      for (std::size_t i = 0; i + 3 <= llrs.size(); i += 3) {
        out.push_back(llrs[i] + llrs[i + 1] + llrs[i + 2] < 0.0 ? 1 : 0);
      }
      return out;
    }
    case CodeScheme::kHamming74: {
      std::vector<std::uint8_t> out;
      out.reserve(llrs.size() / 7 * 4);
      for (std::size_t i = 0; i + 7 <= llrs.size(); i += 7) {
        // Maximum likelihood over the 16 codewords: a codeword's score is
        // the sum of LLRs it agrees with (bit 0 contributes +llr, bit 1
        // contributes -llr); pick the max.
        double best_score = -1e30;
        unsigned best_data = 0;
        for (unsigned data = 0; data < 16; ++data) {
          const std::uint8_t d[4] = {
              static_cast<std::uint8_t>((data >> 3) & 1),
              static_cast<std::uint8_t>((data >> 2) & 1),
              static_cast<std::uint8_t>((data >> 1) & 1),
              static_cast<std::uint8_t>(data & 1)};
          std::vector<std::uint8_t> cw;
          EncodeHammingBlock(d, cw);
          double score = 0.0;
          for (int j = 0; j < 7; ++j) {
            score += cw[static_cast<std::size_t>(j)] ? -llrs[i + static_cast<std::size_t>(j)]
                                                     : llrs[i + static_cast<std::size_t>(j)];
          }
          if (score > best_score) {
            best_score = score;
            best_data = data;
          }
        }
        out.push_back(static_cast<std::uint8_t>((best_data >> 3) & 1));
        out.push_back(static_cast<std::uint8_t>((best_data >> 2) & 1));
        out.push_back(static_cast<std::uint8_t>((best_data >> 1) & 1));
        out.push_back(static_cast<std::uint8_t>(best_data & 1));
      }
      return out;
    }
  }
  throw std::invalid_argument("DecodeSoft: unknown scheme");
}

namespace {

/// Read order of the depth-column block interleaver: all indices
/// congruent to 0 mod depth (in ascending order), then 1 mod depth, ...
std::vector<std::size_t> InterleavePermutation(std::size_t n,
                                               std::size_t depth) {
  std::vector<std::size_t> perm;
  perm.reserve(n);
  for (std::size_t column = 0; column < depth; ++column) {
    for (std::size_t i = column; i < n; i += depth) perm.push_back(i);
  }
  return perm;
}

}  // namespace

std::vector<std::uint8_t> Interleave(const std::vector<std::uint8_t>& bits,
                                     std::size_t depth) {
  if (depth <= 1 || bits.size() <= depth) return bits;
  const std::vector<std::size_t> perm =
      InterleavePermutation(bits.size(), depth);
  std::vector<std::uint8_t> out(bits.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[k] = bits[perm[k]];
  return out;
}

std::vector<std::uint8_t> Deinterleave(const std::vector<std::uint8_t>& bits,
                                       std::size_t depth) {
  if (depth <= 1 || bits.size() <= depth) return bits;
  const std::vector<std::size_t> perm =
      InterleavePermutation(bits.size(), depth);
  std::vector<std::uint8_t> out(bits.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[perm[k]] = bits[k];
  return out;
}

void SoftCombiner::Add(const std::vector<double>& llrs) {
  if (rounds_ == 0) {
    sum_ = llrs;
  } else {
    if (llrs.size() != sum_.size()) {
      throw std::invalid_argument(
          "SoftCombiner: retransmission length mismatch");
    }
    for (std::size_t i = 0; i < llrs.size(); ++i) sum_[i] += llrs[i];
  }
  ++rounds_;
  WL_COUNT("modem.chase.combined_rounds");
}

std::vector<std::uint8_t> SoftCombiner::HardBits() const {
  return DecodeSoft(CodeScheme::kNone, sum_);
}

}  // namespace wearlock::modem
