// Crypto substrate tests against published vectors: FIPS 180-1 SHA-1,
// RFC 2202 HMAC-SHA1, RFC 4226 HOTP (Appendix D).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/hotp.h"
#include "crypto/sha1.h"

namespace wearlock::crypto {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Lowercase hex of a digest, the form the published vectors use.
std::string ToHex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

// ------------------------------------------------------------------ SHA1
TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(ToHex(Sha1::Hash(Bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(ToHex(Sha1::Hash(Bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(ToHex(Sha1::Hash(Bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 h;
  h.Update(Bytes("hello "));
  h.Update(Bytes("world"));
  EXPECT_EQ(ToHex(h.Finalize()), ToHex(Sha1::Hash(Bytes("hello world"))));
}

TEST(Sha1, UpdateAfterFinalizeThrows) {
  Sha1 h;
  h.Update(Bytes("x"));
  h.Finalize();
  EXPECT_THROW(h.Update(Bytes("y")), std::logic_error);
  EXPECT_THROW(h.Finalize(), std::logic_error);
  h.Reset();
  h.Update(Bytes("abc"));
  EXPECT_EQ(ToHex(h.Finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// ------------------------------------------------------------------ HMAC
TEST(Hmac, Rfc2202Vector1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha1(key, Bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc2202Vector2) {
  EXPECT_EQ(ToHex(HmacSha1(Bytes("Jefe"), Bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc2202Vector3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha1(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(Hmac, Rfc2202Vector4) {
  // 25-byte key: exercises the key < block-size padding path with a
  // length that is neither the digest size nor the block size.
  std::vector<std::uint8_t> key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const std::vector<std::uint8_t> data(50, 0xcd);
  EXPECT_EQ(ToHex(HmacSha1(key, data)),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
}

TEST(Hmac, Rfc2202Vector5) {
  const std::vector<std::uint8_t> key(20, 0x0c);
  EXPECT_EQ(ToHex(HmacSha1(key, Bytes("Test With Truncation"))),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
}

TEST(Hmac, Rfc2202LongKey) {
  const std::vector<std::uint8_t> key(80, 0xaa);
  EXPECT_EQ(ToHex(HmacSha1(
                key, Bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, Rfc2202Vector7) {
  // Larger-than-block-size key AND larger-than-block-size data: the
  // hash-key-first path combined with multi-block message processing.
  const std::vector<std::uint8_t> key(80, 0xaa);
  EXPECT_EQ(ToHex(HmacSha1(key,
                           Bytes("Test Using Larger Than Block-Size Key and "
                                 "Larger Than One Block-Size Data"))),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

// ------------------------------------------------------------------ HOTP
// RFC 4226 Appendix D: key "12345678901234567890".
class HotpRfcVectors : public ::testing::TestWithParam<
                           std::tuple<std::uint64_t, std::uint32_t, std::string>> {
 protected:
  const std::vector<std::uint8_t> key_ = Bytes("12345678901234567890");
};

TEST_P(HotpRfcVectors, TruncatedValueAndCode) {
  const auto [counter, truncated, code] = GetParam();
  EXPECT_EQ(HotpValue(key_, counter), truncated);
  EXPECT_EQ(HotpCode(key_, counter, 6), code);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4226AppendixD, HotpRfcVectors,
    ::testing::Values(
        std::make_tuple(0ull, 0x4c93cf18u, "755224"),
        std::make_tuple(1ull, 0x41397eeau, "287082"),
        std::make_tuple(2ull, 0x82fef30u, "359152"),
        std::make_tuple(3ull, 0x66ef7655u, "969429"),
        std::make_tuple(4ull, 0x61c5938au, "338314"),
        std::make_tuple(5ull, 0x33c083d4u, "254676"),
        std::make_tuple(6ull, 0x7256c032u, "287922"),
        std::make_tuple(7ull, 0x4e5b397u, "162583"),
        std::make_tuple(8ull, 0x2823443fu, "399871"),
        std::make_tuple(9ull, 0x2679dc69u, "520489")));

// RFC 4226 Appendix D also publishes the full intermediate HMAC-SHA-1
// digests, not just the truncated values - pinning them localizes a
// failure to the HMAC stage vs. the dynamic-truncation stage.
class HotpIntermediateDigests
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(HotpIntermediateDigests, HmacStageMatchesAppendixD) {
  const auto [counter, hmac_hex] = GetParam();
  const auto key = Bytes("12345678901234567890");
  // The HOTP message: the counter as an 8-byte big-endian block.
  std::vector<std::uint8_t> msg(8);
  for (int i = 0; i < 8; ++i) {
    msg[7 - i] = static_cast<std::uint8_t>((counter >> (8 * i)) & 0xff);
  }
  const auto digest = HmacSha1(key, msg);
  EXPECT_EQ(ToHex(digest), hmac_hex);

  // Dynamic truncation (RFC 4226 §5.3) of that digest reproduces
  // HotpValue: the two stages compose into the published codes.
  const std::size_t offset = digest[19] & 0x0f;
  const std::uint32_t truncated =
      (static_cast<std::uint32_t>(digest[offset] & 0x7f) << 24) |
      (static_cast<std::uint32_t>(digest[offset + 1]) << 16) |
      (static_cast<std::uint32_t>(digest[offset + 2]) << 8) |
      static_cast<std::uint32_t>(digest[offset + 3]);
  EXPECT_EQ(truncated, HotpValue(key, counter));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4226AppendixD, HotpIntermediateDigests,
    ::testing::Values(
        std::make_tuple(0ull, "cc93cf18508d94934c64b65d8ba7667fb7cde4b0"),
        std::make_tuple(1ull, "75a48a19d4cbe100644e8ac1397eea747a2d33ab"),
        std::make_tuple(2ull, "0bacb7fa082fef30782211938bc1c5e70416ff44"),
        std::make_tuple(3ull, "66c28227d03a2d5529262ff016a1e6ef76557ece"),
        std::make_tuple(4ull, "a904c900a64b35909874b33e61c5938a8e15ed1c"),
        std::make_tuple(5ull, "a37e783d7b7233c083d4f62926c7a25f238d0316"),
        std::make_tuple(6ull, "bc9cd28561042c83f219324d3c607256c03272ae"),
        std::make_tuple(7ull, "a4fb960c0bc06e1eabb804e5b397cdc4b45596fa"),
        std::make_tuple(8ull, "1b3c89f65e6c9e883012052823443f048b4332db"),
        std::make_tuple(9ull, "1637409809a679dc698207310c8c7fc07290d9e5")));

TEST(Hotp, CodeDigitsValidation) {
  const auto key = Bytes("12345678901234567890");
  EXPECT_THROW(HotpCode(key, 0, 0), std::invalid_argument);
  EXPECT_THROW(HotpCode(key, 0, 10), std::invalid_argument);
  EXPECT_EQ(HotpCode(key, 0, 9).size(), 9u);
}

TEST(Hotp, TruncationOutputIs31Bits) {
  const auto key = Bytes("12345678901234567890");
  for (std::uint64_t c = 0; c < 50; ++c) {
    EXPECT_EQ(HotpValue(key, c) >> 31, 0u) << c;
  }
}

}  // namespace
}  // namespace wearlock::crypto
