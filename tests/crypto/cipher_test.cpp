#include "crypto/cipher.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace itdos::crypto {
namespace {

SymmetricKey test_key(std::uint8_t fill = 0x42) {
  return SymmetricKey::from_bytes(Bytes(kSymmetricKeySize, fill));
}

TEST(CipherTest, CtrRoundTrip) {
  const SymmetricKey key = test_key();
  const Nonce nonce = make_nonce(1, 1);
  const Bytes plaintext = to_bytes("attack at dawn");
  const Bytes ct = ctr_crypt(key, nonce, plaintext);
  EXPECT_NE(ct, plaintext);
  EXPECT_EQ(ctr_crypt(key, nonce, ct), plaintext);
}

TEST(CipherTest, CtrEmptyPlaintext) {
  EXPECT_TRUE(ctr_crypt(test_key(), make_nonce(0, 0), {}).empty());
}

TEST(CipherTest, CtrLargeMultiBlock) {
  Rng rng(1);
  const Bytes plaintext = rng.next_bytes(10000);
  const Nonce nonce = make_nonce(9, 9);
  const Bytes ct = ctr_crypt(test_key(), nonce, plaintext);
  ASSERT_EQ(ct.size(), plaintext.size());
  EXPECT_EQ(ctr_crypt(test_key(), nonce, ct), plaintext);
}

TEST(CipherTest, DistinctNoncesDistinctKeystreams) {
  const Bytes zeros(64, 0);
  const Bytes ks1 = ctr_crypt(test_key(), make_nonce(1, 1), zeros);
  const Bytes ks2 = ctr_crypt(test_key(), make_nonce(1, 2), zeros);
  EXPECT_NE(ks1, ks2);
}

TEST(CipherTest, DistinctKeysDistinctKeystreams) {
  const Bytes zeros(64, 0);
  EXPECT_NE(ctr_crypt(test_key(0x01), make_nonce(1, 1), zeros),
            ctr_crypt(test_key(0x02), make_nonce(1, 1), zeros));
}

TEST(CipherTest, NonceEncodesSenderAndCounter) {
  EXPECT_NE(make_nonce(1, 7), make_nonce(2, 7));
  EXPECT_NE(make_nonce(1, 7), make_nonce(1, 8));
  EXPECT_EQ(make_nonce(3, 9), make_nonce(3, 9));
}

TEST(SealTest, RoundTrip) {
  const SymmetricKey key = test_key();
  const Bytes aad = to_bytes("header");
  const Bytes pt = to_bytes("confidential request body");
  const Bytes sealed = seal(key, make_nonce(4, 2), aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + kSealOverhead);
  const Result<Bytes> opened = open(key, aad, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), pt);
}

TEST(SealTest, EmptyPlaintextRoundTrip) {
  const SymmetricKey key = test_key();
  const Bytes sealed = seal(key, make_nonce(1, 1), {}, {});
  EXPECT_EQ(sealed.size(), kSealOverhead);
  const Result<Bytes> opened = open(key, {}, sealed);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST(SealTest, RejectsWrongKey) {
  const Bytes sealed = seal(test_key(0x01), make_nonce(1, 1), {}, to_bytes("x"));
  const Result<Bytes> opened = open(test_key(0x02), {}, sealed);
  EXPECT_EQ(opened.status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsTamperedCiphertext) {
  Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("payload"));
  sealed[kNonceSize] ^= 0x01;  // flip first ciphertext byte
  EXPECT_EQ(open(test_key(), {}, sealed).status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsTamperedNonce) {
  Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("payload"));
  sealed[0] ^= 0x01;
  EXPECT_EQ(open(test_key(), {}, sealed).status().code(), Errc::kAuthFailure);
}

TEST(SealTest, RejectsWrongAad) {
  const Bytes sealed = seal(test_key(), make_nonce(1, 1), to_bytes("aad-1"), to_bytes("p"));
  EXPECT_EQ(open(test_key(), to_bytes("aad-2"), sealed).status().code(),
            Errc::kAuthFailure);
}

TEST(SealTest, RejectsTruncatedBuffer) {
  const Bytes sealed = seal(test_key(), make_nonce(1, 1), {}, to_bytes("p"));
  const ByteView truncated(sealed.data(), kSealOverhead - 1);
  EXPECT_EQ(open(test_key(), {}, truncated).status().code(), Errc::kMalformedMessage);
}

TEST(CipherTest, InPlaceKeystreamMatchesCopyingPath) {
  // The zero-copy seal path XORs the marshal buffer directly; it must
  // produce byte-for-byte the same transform as the copying ctr_crypt.
  Rng rng(7);
  for (const std::size_t size : {0u, 1u, 31u, 32u, 33u, 4096u}) {
    const Bytes plaintext = rng.next_bytes(size);
    const Nonce nonce = make_nonce(5, size);
    Bytes in_place(plaintext);
    ctr_crypt_inplace(test_key(), nonce, in_place);
    EXPECT_EQ(in_place, ctr_crypt(test_key(), nonce, plaintext)) << size;
  }
}

TEST(SealTest, SingleBufferSealMatchesReferenceComposition) {
  // Reference = the pre-zero-copy construction: encrypt into a SEPARATE
  // buffer, then concatenate nonce || ciphertext || truncated MAC. The
  // in-place seal must emit identical wire bytes (old peers keep opening
  // new frames and vice versa).
  const SymmetricKey key = test_key(0x21);
  const Nonce nonce = make_nonce(6, 44);
  const Bytes aad = to_bytes("routing header");
  Rng rng(11);
  for (const std::size_t size : {0u, 1u, 100u, 5000u}) {
    const Bytes plaintext = rng.next_bytes(size);
    const Bytes ciphertext = ctr_crypt(key, nonce, plaintext);
    Bytes reference;
    append(reference, ByteView(nonce.data(), nonce.size()));
    append(reference, ciphertext);
    const Bytes mk = derive_key(key.view(), "itdos.mac", {});
    const Digest tag =
        HmacKey(mk).mac({ByteView(nonce.data(), nonce.size()), aad, ciphertext});
    append(reference, ByteView(tag.data(), kMacTagSize));
    EXPECT_EQ(seal(key, nonce, aad, plaintext), reference) << size;
  }
}

TEST(SealTest, FingerprintStableAndShort) {
  const SymmetricKey key = test_key();
  EXPECT_EQ(key.fingerprint(), test_key().fingerprint());
  EXPECT_EQ(key.fingerprint().size(), 8u);
  EXPECT_NE(key.fingerprint(), test_key(0x43).fingerprint());
}

TEST(SymmetricKeyDeathTest, FromBytesRejectsAnyOtherSize) {
  // Enforced in every build type: a short buffer must never be read past.
  EXPECT_DEATH(SymmetricKey::from_bytes(Bytes(kSymmetricKeySize - 1, 1)), "need 32");
  EXPECT_DEATH(SymmetricKey::from_bytes(Bytes(kSymmetricKeySize + 1, 1)), "need 32");
  EXPECT_DEATH(SymmetricKey::from_bytes(ByteView{}), "need 32");
}

TEST(SymmetricKeyTest, SubkeysAreTheLabelledDerivations) {
  const SymmetricKey key = test_key();
  const Bytes msg = to_bytes("m");
  EXPECT_EQ(key.enc_subkey().mac(msg),
            hmac_sha256(derive_key(key.view(), "itdos.enc", {}), msg));
  EXPECT_EQ(key.mac_subkey().mac(msg),
            hmac_sha256(derive_key(key.view(), "itdos.mac", {}), msg));
}

TEST(SymmetricKeyTest, EqualityFollowsKeyBytes) {
  EXPECT_EQ(test_key(), test_key());
  EXPECT_NE(test_key(), test_key(0x43));
}

}  // namespace
}  // namespace itdos::crypto
