#include "attack/cpa.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace emts::attack {

namespace {

// Sample range (within an encryption segment) covering the final round. It
// matches the 12-cycle / 8-samples-per-cycle schedule: round 10 occupies
// cycle 10.
constexpr std::size_t kWindowBegin = 80;
constexpr std::size_t kWindowEnd = 88;

}  // namespace

std::size_t inv_shift_position(std::size_t j) {
  EMTS_REQUIRE(j < 16, "byte position out of range");
  // state10[r + 4c] came (pre-AddRoundKey) from after_sub[r + 4((c + r) % 4)].
  const std::size_t r = j % 4;
  const std::size_t c = j / 4;
  return r + 4 * ((c + r) % 4);
}

std::vector<EncryptionTrace> slice_encryptions(
    const core::TraceSet& windows,
    const std::vector<std::vector<aes::Block>>& ciphertexts_per_window,
    std::size_t samples_per_encryption) {
  EMTS_REQUIRE(windows.size() == ciphertexts_per_window.size(),
               "one ciphertext list per window required");
  EMTS_REQUIRE(samples_per_encryption > 0, "samples_per_encryption must be positive");

  std::vector<EncryptionTrace> out;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const core::Trace& window = windows.traces[w];
    const auto& cts = ciphertexts_per_window[w];
    EMTS_REQUIRE(window.size() >= cts.size() * samples_per_encryption,
                 "window too short for its ciphertext list");
    for (std::size_t e = 0; e < cts.size(); ++e) {
      EncryptionTrace trace;
      const auto begin = window.begin() + static_cast<long>(e * samples_per_encryption);
      trace.samples.assign(begin, begin + static_cast<long>(samples_per_encryption));
      trace.ciphertext = cts[e];
      out.push_back(std::move(trace));
    }
  }
  return out;
}

std::size_t CpaByteResult::rank_of(std::uint8_t truth) const {
  std::size_t rank = 0;
  for (int guess = 0; guess < 256; ++guess) {
    if (correlation[static_cast<std::size_t>(guess)] > correlation[truth] &&
        guess != truth) {
      ++rank;
    }
  }
  return rank;
}

std::size_t CpaResult::correct_bytes(const aes::Block& truth) const {
  std::size_t correct = 0;
  for (std::size_t j = 0; j < 16; ++j) correct += (round10_key[j] == truth[j]);
  return correct;
}

CpaResult last_round_cpa(const std::vector<EncryptionTrace>& traces) {
  EMTS_REQUIRE(traces.size() >= 8, "CPA needs at least 8 encryption traces");
  const std::size_t n = traces.size();
  const std::size_t window = kWindowEnd - kWindowBegin;
  for (const EncryptionTrace& t : traces) {
    EMTS_REQUIRE(t.samples.size() >= kWindowEnd, "encryption trace shorter than the CPA window");
  }

  // Precompute per-sample means and standard deviations of the measurements.
  std::vector<double> mean(window, 0.0);
  std::vector<double> sq(window, 0.0);
  for (const EncryptionTrace& t : traces) {
    for (std::size_t s = 0; s < window; ++s) {
      const double v = t.samples[kWindowBegin + s];
      mean[s] += v;
      sq[s] += v * v;
    }
  }
  const double dn = static_cast<double>(n);
  std::vector<double> sd(window, 0.0);
  for (std::size_t s = 0; s < window; ++s) {
    mean[s] /= dn;
    sd[s] = std::sqrt(std::max(sq[s] / dn - mean[s] * mean[s], 0.0));
  }

  CpaResult result;
  std::vector<double> prediction(n);
  for (std::size_t j = 0; j < 16; ++j) {
    CpaByteResult& byte = result.bytes[j];
    const std::size_t src = inv_shift_position(j);

    for (int guess = 0; guess < 256; ++guess) {
      // Hamming-distance prediction per trace.
      double p_mean = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const std::uint8_t ct_j = traces[t].ciphertext[j];
        const std::uint8_t before =
            aes::inv_sbox(static_cast<std::uint8_t>(ct_j ^ guess));
        const std::uint8_t after = traces[t].ciphertext[src];
        prediction[t] = std::popcount(static_cast<unsigned>(before ^ after));
        p_mean += prediction[t];
      }
      p_mean /= dn;
      double p_var = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        prediction[t] -= p_mean;
        p_var += prediction[t] * prediction[t];
      }
      const double p_sd = std::sqrt(p_var / dn);
      if (p_sd == 0.0) continue;

      // Max |rho| over the sample window.
      double best_abs = 0.0;
      for (std::size_t s = 0; s < window; ++s) {
        if (sd[s] == 0.0) continue;
        double cov = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
          cov += prediction[t] * (traces[t].samples[kWindowBegin + s] - mean[s]);
        }
        const double rho = cov / (dn * p_sd * sd[s]);
        best_abs = std::max(best_abs, std::abs(rho));
      }
      byte.correlation[static_cast<std::size_t>(guess)] = best_abs;
      if (best_abs > byte.best_correlation) {
        byte.best_correlation = best_abs;
        byte.best_guess = static_cast<std::uint8_t>(guess);
      }
    }
    result.round10_key[j] = byte.best_guess;
  }

  result.master_key = aes::invert_key_schedule(result.round10_key);
  return result;
}

}  // namespace emts::attack
