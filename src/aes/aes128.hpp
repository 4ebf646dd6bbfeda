// FIPS-197 AES-128, implemented from first principles (GF(2^8) inversion plus
// the affine map generate the S-box at startup; no copied lookup tables).
//
// Two interfaces:
//  * encrypt()            — plain block encryption, verified against the FIPS
//                           and NIST-SP800-38A vectors in the tests;
//  * encrypt_traced()     — additionally returns every intermediate round
//                           state and round key. The activity model derives
//                           data-dependent switching (Hamming distances) from
//                           these intermediates, which is what makes the EM
//                           traces plaintext-dependent like the real chip's.
#pragma once

#include <array>
#include <cstdint>

namespace emts::aes {

using Block = std::array<std::uint8_t, 16>;
using Key = std::array<std::uint8_t, 16>;

inline constexpr int kNumRounds = 10;

/// All intermediates of one encryption, indexed by round.
struct RoundTrace {
  // state[0] = plaintext ^ k0 (after initial AddRoundKey);
  // state[r] = state after round r (1..10); state[10] is the ciphertext.
  std::array<Block, kNumRounds + 1> state;
  // Per-round values *inside* round r (1-based; index 0 unused for these).
  std::array<Block, kNumRounds + 1> after_subbytes;
  std::array<Block, kNumRounds + 1> after_shiftrows;
  std::array<Block, kNumRounds + 1> after_mixcolumns;  // round 10 has none; equals after_shiftrows
  std::array<Block, kNumRounds + 1> round_key;         // k0..k10
};

/// GF(2^8) multiply with the AES polynomial x^8+x^4+x^3+x+1.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// The AES S-box (computed once from inversion + affine transform).
std::uint8_t sbox(std::uint8_t x);

/// Inverse S-box.
std::uint8_t inv_sbox(std::uint8_t x);

/// Expands a 128-bit key into the 11 round keys.
std::array<Block, kNumRounds + 1> expand_key(const Key& key);

/// Recovers the master key from the last round key (the AES-128 key schedule
/// is invertible). This is what makes a last-round side-channel attack a
/// full key recovery.
Key invert_key_schedule(const Block& round10_key);

/// One-shot block encryption.
Block encrypt(const Key& key, const Block& plaintext);

/// Block encryption with full intermediate capture.
RoundTrace encrypt_traced(const Key& key, const Block& plaintext);

/// Hamming distance between two blocks (bit flips between states: the core
/// quantity of the switching-activity model).
int hamming_distance(const Block& a, const Block& b);

/// Population count of a block.
int hamming_weight(const Block& a);

}  // namespace emts::aes
