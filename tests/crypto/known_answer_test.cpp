// Known-answer pins for every keyed primitive on the message path. Unlike the
// round-trip and incremental-vs-one-shot tests, these fix the exact output
// bytes, so a refactor of SHA-256 padding, the HMAC construction or subkey
// derivation that changes a single bit fails here even when it is
// self-consistent.
#include <gtest/gtest.h>

#include "bft/config.hpp"
#include "crypto/cipher.hpp"
#include "crypto/signing.hpp"

namespace itdos::crypto {
namespace {

/// Bytes b[i] = (i * mul + add) mod 256.
Bytes pattern(std::size_t n, std::uint8_t mul, std::uint8_t add) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * mul + add);
  return out;
}

// Expected digests of bytes(i % 256 for i in range(n)), computed offline with
// Python's hashlib. The lengths straddle the one- and two-block padding
// boundaries (55/56 and 119/120) and the exact block size.
TEST(CryptoKnownAnswerTest, Sha256AtPaddingBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
  };
  for (const auto& [len, expected] : cases) {
    EXPECT_EQ(hex_encode(digest_view(sha256(pattern(len, 1, 0)))), expected)
        << "len=" << len;
  }
}

TEST(CryptoKnownAnswerTest, SealAcrossLengths) {
  const SymmetricKey key = SymmetricKey::from_bytes(pattern(kSymmetricKeySize, 1, 0));
  const Nonce nonce = make_nonce(7, 42);
  const Bytes aad = to_bytes("itdos-known-answer-aad!!");
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "070000002a0000000000000029b3e20915b9f8831dd533762160ef21"},
      {1, "070000002a00000000000000492ef79280d2e4e454f574242147c239bd"},
      {31,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a45771f8b945c8a2c58d7710c7a8a8f0f4"},
      {32,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47c5d3315b5f29356885db45a16585169a1"},
      {33,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47ce6add1c0979de68b2fea4a8127bbb8b6ae"},
      {55,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47ce6b2ad0593c9f60f55efffa414b86316478abbcbc6d02c5b33864b96b97bfc2c4953"
       "d8a14d940c"},
      {56,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47ce6b2ad0593c9f60f55efffa414b86316478abbcbc6d02c13079e814e1132a0b93ff5"
       "968119be8d2e"},
      {64,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47ce6b2ad0593c9f60f55efffa414b86316478abbcbc6d02c1399558fb3c41b884d166b"
       "2c6046f82800f6cd35f1e14a7d87"},
      {100,
       "070000002a0000000000000049582ceef1bfbdfffe81c7956225685dd90f3e2bedb999857b8fd3"
       "20cb50a47ce6b2ad0593c9f60f55efffa414b86316478abbcbc6d02c1399558fb3c41b884d3575"
       "6af30191da3558517f81715089f43dee6e61ecd305807058dd285d1a8396010da35b7a0680420c"
       "a8f06dc4af118b91df0124"},
  };
  for (const auto& [len, expected] : cases) {
    const Bytes plain = pattern(len, 7, 3);
    const Bytes sealed = seal(key, nonce, aad, plain);
    EXPECT_EQ(hex_encode(sealed), expected) << "len=" << len;
    const Result<Bytes> opened = open(key, aad, sealed);
    ASSERT_TRUE(opened.is_ok()) << "len=" << len;
    EXPECT_EQ(opened.value(), plain) << "len=" << len;
  }

  // 4 KiB: pin the digest of the whole sealed buffer and its tag.
  const Bytes plain = pattern(4096, 7, 3);
  const Bytes sealed = seal(key, nonce, aad, plain);
  ASSERT_EQ(sealed.size(), kSealOverhead + plain.size());
  EXPECT_EQ(hex_encode(digest_view(sha256(sealed))),
            "58f2f3fff4a7687e3841d31b4f18e3077ce1516d7b33f3189bec2ecbc8d1b0d4");
  EXPECT_EQ(hex_encode(ByteView(sealed).subspan(sealed.size() - kMacTagSize)),
            "17b9335208804ce977181ac7d249d6ad");
  const Result<Bytes> opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), plain);
}

TEST(CryptoKnownAnswerTest, SessionKeyTagsInBothOrders) {
  const bft::SessionKeys keys(to_bytes("known-answer master secret"));
  const Bytes body = to_bytes("PRE-PREPARE v=0 n=1 d=known-answer");
  const struct {
    std::uint64_t a, b;
    const char* expected;
  } cases[] = {
      {1, 2, "2d65ffc8bea5e970fbc7fd4727472a8f"},
      {5, 100, "5c94b15ceff4d92f2bd40636b69893f3"},
  };
  for (const auto& c : cases) {
    for (const auto& [x, y] : {std::pair{c.a, c.b}, std::pair{c.b, c.a}}) {
      const MacTag tag = keys.tag(NodeId(x), NodeId(y), body);
      EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())), c.expected)
          << x << "->" << y;
      EXPECT_TRUE(keys.verify(NodeId(x), NodeId(y), body, tag));
    }
  }
}

TEST(CryptoKnownAnswerTest, SigningKeySign) {
  const SigningKey key(NodeId(3), pattern(32, 1, 0x80));
  const Signature sig = key.sign(pattern(64, 1, 0));
  EXPECT_EQ(hex_encode(ByteView(sig.data(), sig.size())),
            "d1f3cb386d7262c6e664be780eddbdd194d1acbbcd36293cb30d8a1c1a02ffbe");
}

}  // namespace
}  // namespace itdos::crypto
