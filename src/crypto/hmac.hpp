// HMAC-SHA256 (RFC 2104). Used for message authenticators between replicas
// (the Castro-Liskov MAC optimization), share derivation in the distributed
// PRF, the connection cipher's subkeys, and the simulated signature scheme.
#pragma once

#include <initializer_list>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace itdos::crypto {

/// Truncated MAC tag as carried on the wire (16 bytes is ample here).
inline constexpr std::size_t kMacTagSize = 16;
using MacTag = std::array<std::uint8_t, kMacTagSize>;

/// An HMAC-SHA256 key kept as the two SHA-256 midstates left after absorbing
/// its ipad and opad blocks. Building one costs two compressions; every MAC
/// under it then skips them, so a key that is used more than once is built
/// once and stored next to whatever owns the key.
class HmacKey {
 public:
  /// Any key length (keys longer than a block are hashed first, per RFC 2104).
  explicit HmacKey(ByteView key);

  Digest mac(ByteView data) const;

  /// MAC over the concatenation of `segments` (avoids concatenation copies).
  Digest mac(std::initializer_list<ByteView> segments) const;

  /// `mac` truncated to the wire tag, and its constant-time check.
  MacTag tag(ByteView data) const;
  bool verify(ByteView data, const MacTag& tag) const;

 private:
  Sha256::State inner_;
  Sha256::State outer_;
};

/// One-shot HMAC-SHA256 over `data` with `key`: HmacKey(key).mac(data).
Digest hmac_sha256(ByteView key, ByteView data);

/// HKDF-style key derivation: out = HMAC(key, label || info).
Bytes derive_key(const HmacKey& key, std::string_view label, ByteView info);
Bytes derive_key(ByteView key, std::string_view label, ByteView info);

}  // namespace itdos::crypto
