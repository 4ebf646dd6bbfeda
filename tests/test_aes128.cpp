#include "aes/aes128.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace emts::aes {
namespace {

Key make_key(std::initializer_list<int> bytes) {
  Key k{};
  std::size_t i = 0;
  for (int b : bytes) k[i++] = static_cast<std::uint8_t>(b);
  return k;
}

Block make_block(std::initializer_list<int> bytes) {
  Block b{};
  std::size_t i = 0;
  for (int v : bytes) b[i++] = static_cast<std::uint8_t>(v);
  return b;
}

TEST(GfMul, KnownProducts) {
  // Classic FIPS examples: {57} * {83} = {c1}, {57} * {13} = {fe}.
  EXPECT_EQ(gf_mul(0x57, 0x83), 0xc1);
  EXPECT_EQ(gf_mul(0x57, 0x13), 0xfe);
  EXPECT_EQ(gf_mul(0x02, 0x80), 0x1b);  // reduction case
}

TEST(GfMul, OneIsIdentityZeroAnnihilates) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(GfMul, Commutative) {
  emts::Rng rng{1};
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u32());
    const auto b = static_cast<std::uint8_t>(rng.next_u32());
    EXPECT_EQ(gf_mul(a, b), gf_mul(b, a));
  }
}

TEST(Sbox, KnownValues) {
  // FIPS-197 S-box spot checks.
  EXPECT_EQ(sbox(0x00), 0x63);
  EXPECT_EQ(sbox(0x01), 0x7c);
  EXPECT_EQ(sbox(0x53), 0xed);
  EXPECT_EQ(sbox(0xff), 0x16);
}

TEST(Sbox, InverseRoundTripsAllBytes) {
  for (int x = 0; x < 256; ++x) {
    const auto b = static_cast<std::uint8_t>(x);
    EXPECT_EQ(inv_sbox(sbox(b)), b);
    EXPECT_EQ(sbox(inv_sbox(b)), b);
  }
}

TEST(Sbox, IsAPermutationWithNoFixedPoints) {
  std::array<int, 256> seen{};
  for (int x = 0; x < 256; ++x) {
    const auto s = sbox(static_cast<std::uint8_t>(x));
    ++seen[s];
    EXPECT_NE(s, x) << "AES S-box has no fixed points";
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(KeyExpansion, Fips197AppendixAVector) {
  // FIPS-197 A.1: key 2b7e151628aed2a6abf7158809cf4f3c.
  const Key key = make_key({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
                            0x88, 0x09, 0xcf, 0x4f, 0x3c});
  const auto rk = expand_key(key);
  // w4 = a0fafe17 (first word of round key 1).
  EXPECT_EQ(rk[1][0], 0xa0);
  EXPECT_EQ(rk[1][1], 0xfa);
  EXPECT_EQ(rk[1][2], 0xfe);
  EXPECT_EQ(rk[1][3], 0x17);
  // w43 = b6630ca6 (last word of round key 10).
  EXPECT_EQ(rk[10][12], 0xb6);
  EXPECT_EQ(rk[10][13], 0x63);
  EXPECT_EQ(rk[10][14], 0x0c);
  EXPECT_EQ(rk[10][15], 0xa6);
}

TEST(Aes128, Fips197AppendixBVector) {
  const Key key = make_key({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
                            0x88, 0x09, 0xcf, 0x4f, 0x3c});
  const Block pt = make_block({0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98,
                               0xa2, 0xe0, 0x37, 0x07, 0x34});
  const Block expected = make_block({0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11,
                                     0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32});
  EXPECT_EQ(encrypt(key, pt), expected);
}

TEST(Aes128, Fips197AppendixCVector) {
  // C.1: key 000102...0f, plaintext 00112233445566778899aabbccddeeff.
  Key key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  Block pt{};
  for (int i = 0; i < 16; ++i) {
    pt[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x11 * i);
  }
  const Block expected = make_block({0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd,
                                     0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a});
  EXPECT_EQ(encrypt(key, pt), expected);
}

TEST(Aes128, Sp80038aEcbVector) {
  // NIST SP800-38A F.1.1 ECB-AES128 block #1.
  const Key key = make_key({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
                            0x88, 0x09, 0xcf, 0x4f, 0x3c});
  const Block pt = make_block({0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
                               0x11, 0x73, 0x93, 0x17, 0x2a});
  const Block expected = make_block({0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e,
                                     0xca, 0xf3, 0x24, 0x66, 0xef, 0x97});
  EXPECT_EQ(encrypt(key, pt), expected);
}

TEST(Aes128, TraceIsConsistentWithEncrypt) {
  emts::Rng rng{88};
  Key key{};
  Block pt{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u32());
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto trace = encrypt_traced(key, pt);
  EXPECT_EQ(trace.state[kNumRounds], encrypt(key, pt));
  // state[0] must be pt ^ k0.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.state[0][i], static_cast<std::uint8_t>(pt[i] ^ trace.round_key[0][i]));
  }
  // Final round: state[10] = ShiftRows(SubBytes(state[9])) ^ k10.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(trace.state[10][i],
              static_cast<std::uint8_t>(trace.after_shiftrows[10][i] ^ trace.round_key[10][i]));
  }
}

TEST(Aes128, AvalancheEffect) {
  // Flipping one plaintext bit should flip ~half the ciphertext bits.
  const Key key = make_key({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15,
                            0x88, 0x09, 0xcf, 0x4f, 0x3c});
  emts::Rng rng{99};
  double total_hd = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_u32());
    Block flipped = pt;
    flipped[rng.uniform_below(16)] ^= static_cast<std::uint8_t>(1u << rng.uniform_below(8));
    total_hd += hamming_distance(encrypt(key, pt), encrypt(key, flipped));
  }
  const double avg = total_hd / trials;
  EXPECT_GT(avg, 56.0);
  EXPECT_LT(avg, 72.0);
}

TEST(Hamming, DistanceAndWeight) {
  Block a{};
  Block b{};
  EXPECT_EQ(hamming_distance(a, b), 0);
  EXPECT_EQ(hamming_weight(a), 0);
  b[0] = 0xff;
  b[15] = 0x0f;
  EXPECT_EQ(hamming_distance(a, b), 12);
  EXPECT_EQ(hamming_weight(b), 12);
}

}  // namespace
}  // namespace emts::aes
