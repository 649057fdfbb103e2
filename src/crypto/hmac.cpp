#include "crypto/hmac.h"

namespace wearlock::crypto {

Digest HmacSha1(const std::vector<std::uint8_t>& key,
                const std::vector<std::uint8_t>& message) {
  constexpr std::size_t kBlock = 64;
  std::vector<std::uint8_t> k = key;
  if (k.size() > kBlock) {
    const Digest d = Sha1::Hash(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0x00);

  std::vector<std::uint8_t> ipad(kBlock), opad(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  Sha1 inner;
  inner.Update(ipad);
  inner.Update(message);
  const Digest inner_digest = inner.Finalize();

  Sha1 outer;
  outer.Update(opad);
  outer.Update(std::vector<std::uint8_t>(inner_digest.begin(), inner_digest.end()));
  return outer.Finalize();
}

}  // namespace wearlock::crypto
