// Correlation power analysis (CPA) against the last AES round — the
// attacker's side of the EM channel. The paper credits EM with being "rich
// in information" (Sec. III-A); this module proves the point: the same
// on-chip sensor traces the trust framework consumes carry enough
// data-dependent leakage to recover the AES key, using the classic
// Hamming-distance model on the round-9 -> round-10 state-register
// transition (Brier et al., CHES 2004). It doubles as a warning: sensor
// output must never leave the trust boundary.
//
// Attack model: known ciphertexts, traces time-aligned to encryptions. For
// a guessed last-round-key byte k at position j, the predicted register
// flip count at the shifted source byte is
//     HD( inv_sbox(ct[j] ^ k), ct[inv_shift(j)] );
// the correct guess correlates with the measured round-10 samples; the key
// schedule is then inverted for the master key.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aes/aes128.hpp"
#include "core/trace.hpp"

namespace emts::attack {

/// One encryption's worth of samples plus its observed ciphertext.
struct EncryptionTrace {
  std::vector<double> samples;
  aes::Block ciphertext;
};

/// Cuts full capture windows into per-encryption segments, pairing each with
/// its ciphertext. `ciphertexts_per_window[w]` lists the ciphertexts of
/// window w in execution order; each window must hold at least
/// samples_per_encryption * list-size samples.
std::vector<EncryptionTrace> slice_encryptions(
    const core::TraceSet& windows,
    const std::vector<std::vector<aes::Block>>& ciphertexts_per_window,
    std::size_t samples_per_encryption);

/// Byte position that feeds state10[j] through ShiftRows (the register whose
/// flip the model predicts).
std::size_t inv_shift_position(std::size_t j);

struct CpaByteResult {
  std::uint8_t best_guess = 0;
  double best_correlation = 0.0;
  // |correlation| of every guess (max over the sample window), for ranking.
  std::array<double, 256> correlation{};

  /// Rank of `truth` among all guesses (0 = best).
  std::size_t rank_of(std::uint8_t truth) const;
};

struct CpaResult {
  std::array<CpaByteResult, 16> bytes{};
  aes::Block round10_key{};  // best guess per byte
  aes::Key master_key{};     // key schedule inverted

  /// How many bytes of `truth` (a round-10 key) were guessed exactly.
  std::size_t correct_bytes(const aes::Block& truth) const;
};

/// Runs the attack over the final round's samples of each encryption
/// segment. Requires >= 8 encryption traces covering that window.
CpaResult last_round_cpa(const std::vector<EncryptionTrace>& traces);

}  // namespace emts::attack
