#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

namespace itdos::crypto {
namespace {

std::string hex(const Digest& d) { return hex_encode(digest_view(d)); }

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);  // key longer than block size gets hashed
  EXPECT_EQ(hex(hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, SegmentedMatchesConcatenated) {
  const Bytes key = to_bytes("segmented-key");
  const Bytes a = to_bytes("part-one|");
  const Bytes b = to_bytes("part-two|");
  const Bytes c = to_bytes("part-three");
  Bytes concat = a;
  append(concat, b);
  append(concat, c);
  EXPECT_EQ(HmacKey(key).mac({ByteView(a), ByteView(b), ByteView(c)}),
            hmac_sha256(key, concat));
}

TEST(HmacTest, KeyIsReusableAcrossCalls) {
  // A stored HmacKey starts every MAC from its midstates; no call may leave
  // state behind for the next.
  const HmacKey key(Bytes(20, 0x0b));
  const Bytes hi = to_bytes("Hi There");
  EXPECT_EQ(hex(key.mac(hi)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(key.mac(to_bytes("other")), hmac_sha256(Bytes(20, 0x0b), to_bytes("other")));
  EXPECT_EQ(hex(key.mac(hi)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, EmptyKeyMatchesZeroBlockKey) {
  // RFC 2104 zero-pads short keys, so the empty key and 64 zero bytes agree.
  EXPECT_EQ(HmacKey(ByteView{}).mac(to_bytes("m")), HmacKey(Bytes(64, 0)).mac(to_bytes("m")));
}

TEST(HmacTest, MacTagVerifyRoundTrip) {
  const HmacKey key(to_bytes("mac-key"));
  const Bytes msg = to_bytes("authenticated payload");
  const MacTag tag = key.tag(msg);
  EXPECT_TRUE(key.verify(msg, tag));
}

TEST(HmacTest, MacTagRejectsTamperedMessage) {
  const HmacKey key(to_bytes("mac-key"));
  Bytes msg = to_bytes("authenticated payload");
  const MacTag tag = key.tag(msg);
  msg[0] ^= 1;
  EXPECT_FALSE(key.verify(msg, tag));
}

TEST(HmacTest, MacTagRejectsWrongKey) {
  const Bytes msg = to_bytes("payload");
  const MacTag tag = HmacKey(to_bytes("key-a")).tag(msg);
  EXPECT_FALSE(HmacKey(to_bytes("key-b")).verify(msg, tag));
}

TEST(HmacTest, MacTagRejectsTamperedTag) {
  const HmacKey key(to_bytes("k"));
  const Bytes msg = to_bytes("m");
  MacTag tag = key.tag(msg);
  tag[0] ^= 0x80;
  EXPECT_FALSE(key.verify(msg, tag));
}

TEST(HmacTest, DeriveKeyLabelSeparation) {
  const Bytes master = to_bytes("master-secret");
  const Bytes enc = derive_key(master, "enc", {});
  const Bytes mac = derive_key(master, "mac", {});
  EXPECT_EQ(enc.size(), kDigestSize);
  EXPECT_NE(enc, mac);
}

TEST(HmacTest, DeriveKeyFromStoredKeyMatchesRawKey) {
  const Bytes master = to_bytes("master-secret");
  EXPECT_EQ(derive_key(HmacKey(master), "label", to_bytes("conn-1")),
            derive_key(master, "label", to_bytes("conn-1")));
}

TEST(HmacTest, DeriveKeyInfoSeparation) {
  const Bytes master = to_bytes("master-secret");
  const Bytes a = derive_key(master, "label", to_bytes("conn-1"));
  const Bytes b = derive_key(master, "label", to_bytes("conn-2"));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace itdos::crypto
