#include "crypto/hmac.hpp"

#include <cstring>

namespace itdos::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;
}  // namespace

HmacKey::HmacKey(ByteView key) {
  std::array<std::uint8_t, kBlockSize> k{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, kBlockSize> pad;
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = k[i] ^ 0x36;
  inner_ = Sha256().update(ByteView(pad.data(), pad.size())).state_;
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  outer_ = Sha256().update(ByteView(pad.data(), pad.size())).state_;
}

Digest HmacKey::mac(ByteView data) const { return mac({data}); }

Digest HmacKey::mac(std::initializer_list<ByteView> segments) const {
  Sha256 inner(inner_, kBlockSize);
  for (ByteView seg : segments) inner.update(seg);
  const Digest inner_digest = inner.finish();
  return Sha256(outer_, kBlockSize).update(digest_view(inner_digest)).finish();
}

MacTag HmacKey::tag(ByteView data) const {
  const Digest d = mac(data);
  MacTag tag;
  std::memcpy(tag.data(), d.data(), tag.size());
  return tag;
}

bool HmacKey::verify(ByteView data, const MacTag& tag) const {
  const MacTag expected = this->tag(data);
  return constant_time_equal(ByteView(expected.data(), expected.size()),
                             ByteView(tag.data(), tag.size()));
}

Digest hmac_sha256(ByteView key, ByteView data) { return HmacKey(key).mac(data); }

Bytes derive_key(const HmacKey& key, std::string_view label, ByteView info) {
  return digest_bytes(key.mac(
      {ByteView(reinterpret_cast<const std::uint8_t*>(label.data()), label.size()), info}));
}

Bytes derive_key(ByteView key, std::string_view label, ByteView info) {
  return derive_key(HmacKey(key), label, info);
}

}  // namespace itdos::crypto
