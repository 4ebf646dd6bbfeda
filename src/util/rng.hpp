// Deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (plaintexts, noise, process
// variation, placement jitter) draws from an explicitly seeded Rng so that
// experiments are bit-reproducible run to run. The generator is PCG32
// (O'Neill, 2014): small state, excellent statistical quality, trivially
// seedable from a 64-bit stream id, and much faster than std::mt19937.
#pragma once

#include <cstdint>
#include <vector>

namespace emts {

/// PCG32 pseudo-random generator with Gaussian and utility draws.
class Rng {
 public:
  /// Seeds from a 64-bit seed and an independent stream selector; two Rng
  /// instances with the same seed but different streams are uncorrelated.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t stream = 1);

  /// Next raw 32-bit draw.
  std::uint32_t next_u32();

  /// Next raw 64-bit draw (two 32-bit draws).
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint32_t uniform_below(std::uint32_t n);

  /// Standard normal draw: a 128-layer ziggurat (Marsaglia & Tsang, J. Stat.
  /// Softw. 5(8), 2000). About 97 % of draws cost one next_u64() and no
  /// log, exp or trig; the rest take the wedge or tail path.
  double gaussian();

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Bernoulli draw.
  bool coin(double p_true = 0.5);

  /// Fills a vector with n i.i.d. N(0, stddev^2) samples.
  std::vector<double> gaussian_vector(std::size_t n, double stddev);

  /// Derives an independent child generator; `label` selects the stream.
  /// Useful to give each noise source / trace its own uncorrelated stream.
  Rng fork(std::uint64_t label) const;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Stable 64-bit mix (SplitMix64 finalizer); used to derive seeds from labels.
std::uint64_t mix64(std::uint64_t x);

}  // namespace emts
