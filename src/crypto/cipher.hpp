// Symmetric confidentiality for ITDOS connections (§3.5).
//
// Substitution note (see DESIGN.md §4): the paper cites DES [12]; we provide
// a CTR-mode stream cipher whose keystream blocks are SHA-256 compressions of
// (key || nonce || counter), plus encrypt-then-MAC sealing. The interface
// mirrors a real AEAD so a production cipher could be swapped in.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/hmac.hpp"

namespace itdos::crypto {

inline constexpr std::size_t kSymmetricKeySize = 32;
inline constexpr std::size_t kNonceSize = 12;

/// A symmetric communication key (the paper's "communication key"). Its
/// encryption and MAC subkeys are derived once, when the key is made, and
/// kept as HMAC midstates, so seal/open never re-derive them.
class SymmetricKey {
 public:
  /// The only constructor. `b` must be exactly kSymmetricKeySize bytes, in
  /// every build type: any other size aborts.
  static SymmetricKey from_bytes(ByteView b);

  bool operator==(const SymmetricKey& other) const { return bytes_ == other.bytes_; }

  ByteView view() const { return ByteView(bytes_.data(), bytes_.size()); }

  /// First 8 hex chars — safe to log, identifies (not reveals) the key.
  std::string fingerprint() const;

  /// HMAC(key, "itdos.enc") and HMAC(key, "itdos.mac"), as HMAC keys: the
  /// CTR keystream and the seal tag never share key material.
  const HmacKey& enc_subkey() const { return enc_; }
  const HmacKey& mac_subkey() const { return mac_; }

 private:
  SymmetricKey(ByteView b, const HmacKey& master);

  std::array<std::uint8_t, kSymmetricKeySize> bytes_;
  HmacKey enc_;
  HmacKey mac_;
};

using Nonce = std::array<std::uint8_t, kNonceSize>;

/// Deterministic per-message nonce from (sender, request counter). Nonces
/// must never repeat under one key; ITDOS keys are per-connection-epoch and
/// counters strictly increase, which guarantees uniqueness.
Nonce make_nonce(std::uint64_t sender, std::uint64_t counter);

/// Raw CTR keystream XOR (encrypt == decrypt). Exposed for tests/benches.
Bytes ctr_crypt(const SymmetricKey& key, const Nonce& nonce, ByteView data);

/// CTR keystream XOR applied in place — the zero-copy seal path transforms
/// the marshal buffer directly instead of producing a second buffer.
void ctr_crypt_inplace(const SymmetricKey& key, const Nonce& nonce,
                       std::span<std::uint8_t> data);

/// Sealed message: nonce || ciphertext || tag, where
/// tag = HMAC(mac_subkey, nonce || aad || ciphertext) truncated.
Bytes seal(const SymmetricKey& key, const Nonce& nonce, ByteView aad, ByteView plaintext);

/// Opens a sealed message; kAuthFailure if the tag does not verify.
Result<Bytes> open(const SymmetricKey& key, ByteView aad, ByteView sealed);

/// Minimum size of a sealed buffer (nonce + tag, empty plaintext).
inline constexpr std::size_t kSealOverhead = kNonceSize + kMacTagSize;

}  // namespace itdos::crypto
