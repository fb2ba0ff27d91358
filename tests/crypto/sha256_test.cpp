#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "crypto/hmac.hpp"

namespace itdos::crypto {
namespace {

std::string hex(const Digest& d) { return hex_encode(digest_view(d)); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, across block "
      "boundaries of the compression function.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }
}

TEST(Sha256Test, EmptyUpdateMidBlockIsANoOp) {
  // An empty view (null data pointer) arriving with bytes buffered must not
  // reach memcpy; the digest is as if it never arrived.
  Sha256 h;
  h.update(std::string_view("abc"));
  h.update(ByteView{});
  EXPECT_EQ(h.finish(), sha256("abc"));
}

TEST(Sha256Test, DeriveKeyWithEmptyInfo) {
  // derive_key hashes label || info; an empty info takes the path above.
  const Bytes key = to_bytes("master-key");
  EXPECT_EQ(derive_key(key, "itdos.mac", {}),
            digest_bytes(hmac_sha256(key, to_bytes("itdos.mac"))));
}

TEST(Sha256Test, ExactBlockSizeInputs) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    for (char c : msg) incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finish(), sha256(msg)) << "len=" << len;
  }
}

TEST(Sha256Test, DigestBytesMatchesDigest) {
  const Digest d = sha256("abc");
  const Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), kDigestSize);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

TEST(Sha256Test, SensitivityToSingleBit) {
  Bytes a = to_bytes("sensitive");
  Bytes b = a;
  b[0] ^= 0x01;
  EXPECT_NE(sha256(ByteView(a)), sha256(ByteView(b)));
}

}  // namespace
}  // namespace itdos::crypto
