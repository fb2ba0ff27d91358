// Deterministic cost guard for the crypto hot path: SHA-256 compressions per
// call, counted by crypto::sha256_compressions(). Each pinned count is the
// useful work only (message blocks, padding and one outer block per HMAC);
// a re-derived key or re-absorbed ipad/opad block shows up as a higher count.
#include <gtest/gtest.h>

#include "bft/config.hpp"
#include "crypto/cipher.hpp"
#include "crypto/signing.hpp"

namespace itdos::crypto {
namespace {

template <typename F>
std::uint64_t compressions_of(F&& f) {
  const std::uint64_t before = sha256_compressions();
  f();
  return sha256_compressions() - before;
}

TEST(CryptoCostTest, Sha256CountsEveryBlockIncludingPadding) {
  EXPECT_EQ(compressions_of([] { sha256(Bytes(55, 1)); }), 1u);
  EXPECT_EQ(compressions_of([] { sha256(Bytes(56, 1)); }), 2u);
  EXPECT_EQ(compressions_of([] { sha256(Bytes(64, 1)); }), 2u);
}

TEST(CryptoCostTest, SessionKeyTag) {
  const bft::SessionKeys keys(Bytes(32, 7));
  const Bytes body100(100, 1);
  const Bytes body40(40, 1);
  // First use of a pair: derive its key from the master midstates (2), build
  // its midstates (2), then the 40 B tag (2).
  EXPECT_EQ(compressions_of([&] { keys.tag(NodeId(1), NodeId(2), body40); }), 6u);
  // From then on, in either argument order, only the MAC itself.
  EXPECT_EQ(compressions_of([&] { keys.tag(NodeId(1), NodeId(2), body100); }), 3u);
  EXPECT_EQ(compressions_of([&] { keys.tag(NodeId(2), NodeId(1), body40); }), 2u);
  const MacTag tag = keys.tag(NodeId(1), NodeId(2), body100);
  EXPECT_EQ(compressions_of([&] {
              EXPECT_TRUE(keys.verify(NodeId(2), NodeId(1), body100, tag));
            }),
            3u);
}

TEST(CryptoCostTest, SymmetricKeyDerivesSubkeysOnce) {
  // Master midstates (2), then each subkey's derivation (2) and midstates (2).
  EXPECT_EQ(compressions_of([] { SymmetricKey::from_bytes(Bytes(kSymmetricKeySize, 1)); }),
            10u);
}

TEST(CryptoCostTest, SealAndOpen) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(kSymmetricKeySize, 0x42));
  const Bytes aad(24, 0xaa);
  // 64 B: two CTR blocks (2 each) + the tag over nonce||aad||ct = 100 B (3).
  // 16 KiB: 512 CTR blocks (2 each) + the tag over 16420 B (257 + 1).
  const std::pair<std::size_t, std::uint64_t> cases[] = {{64, 7}, {16384, 1282}};
  for (const auto& [size, expected] : cases) {
    const Bytes plain(size, 0x5a);
    Bytes sealed;
    EXPECT_EQ(compressions_of([&] { sealed = seal(key, make_nonce(1, 1), aad, plain); }),
              expected)
        << "seal " << size;
    EXPECT_EQ(compressions_of([&] { EXPECT_TRUE(open(key, aad, sealed).is_ok()); }),
              expected)
        << "open " << size;
  }
}

TEST(CryptoCostTest, SignAndVerify) {
  Rng rng(5);
  Keystore keystore;
  const SigningKey key = keystore.issue(NodeId(1), rng);
  const Bytes msg(64, 3);
  Signature sig{};
  EXPECT_EQ(compressions_of([&] { sig = key.sign(msg); }), 3u);
  EXPECT_EQ(compressions_of([&] { EXPECT_TRUE(keystore.verify(NodeId(1), msg, sig).is_ok()); }),
            3u);
}

}  // namespace
}  // namespace itdos::crypto
