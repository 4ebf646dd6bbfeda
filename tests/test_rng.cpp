#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace emts {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42, 7};
  Rng b{42, 7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, DifferentStreamsDiverge) {
  Rng a{42, 1};
  Rng b{42, 2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{123};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformRangeRejectsInvertedBounds) {
  Rng rng{5};
  EXPECT_THROW(rng.uniform(1.0, 0.0), precondition_error);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng{99};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t v = rng.uniform_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformBelowRejectsZero) {
  Rng rng{1};
  EXPECT_THROW(rng.uniform_below(0), precondition_error);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng{2026};
  const int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

// 10^6 standard normal draws from one seeded stream.
std::vector<double> normal_draws(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> z(1000000);
  for (double& v : z) v = rng.gaussian();
  return z;
}

// The ziggurat's base layer edge: draws beyond it come from the tail path.
constexpr double kZigguratR = 3.442619855899;

// Kolmogorov–Smirnov distance of a sorted sample from `cdf`.
template <class Cdf>
double ks_distance(const std::vector<double>& sorted, Cdf cdf) {
  const double n = static_cast<double>(sorted.size());
  double distance = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = cdf(sorted[i]);
    distance = std::max({distance, static_cast<double>(i + 1) / n - f,
                         f - static_cast<double>(i) / n});
  }
  return distance;
}

// KS critical value at alpha = 0.001: sqrt(-ln(alpha / 2) / 2) / sqrt(n).
double ks_critical(std::size_t n) {
  return std::sqrt(-0.5 * std::log(0.0005)) / std::sqrt(static_cast<double>(n));
}

TEST(Rng, GaussianPassesKolmogorovSmirnovAgainstPhi) {
  std::vector<double> z = normal_draws(2028);
  std::sort(z.begin(), z.end());
  const auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  EXPECT_LT(ks_distance(z, phi), ks_critical(z.size()));
}

TEST(Rng, GaussianTailHasTheNormalShare) {
  const std::vector<double> z = normal_draws(2029);
  const double n = static_cast<double>(z.size());
  double beyond = 0.0;
  double largest = 0.0;
  for (const double v : z) {
    if (std::abs(v) > kZigguratR) beyond += 1.0;
    largest = std::max(largest, std::abs(v));
  }
  const double p = std::erfc(kZigguratR / std::sqrt(2.0));  // 5.76e-4
  EXPECT_NEAR(beyond, n * p, 5.0 * std::sqrt(n * p * (1.0 - p)));
  EXPECT_GT(largest, 4.5);  // the tail path ran
}

// Draws beyond r come only from the tail path, whose accept step shapes them:
// their conditional distribution must be the normal's tail. 10^7 draws give
// about 5,800 tail draws; accepting every exponential proposal reads a KS
// distance near 0.04 against a critical value of 0.026.
TEST(Rng, GaussianTailFollowsTheNormalTailBeyondR) {
  Rng rng{2032};
  std::vector<double> tail;
  for (int i = 0; i < 10000000; ++i) {
    const double a = std::abs(rng.gaussian());
    if (a > kZigguratR) tail.push_back(a);
  }
  ASSERT_GT(tail.size(), 5000u);
  std::sort(tail.begin(), tail.end());
  const double beyond_r = std::erfc(kZigguratR / std::sqrt(2.0));
  const auto tail_cdf = [beyond_r](double a) {
    return 1.0 - std::erfc(a / std::sqrt(2.0)) / beyond_r;
  };
  EXPECT_LT(ks_distance(tail, tail_cdf), ks_critical(tail.size()));
}

// Below r each band of |z| is drawn partly by the fast path and partly by
// the wedge test of the layer whose edge falls inside it, so a wrong wedge
// shows as a band share off Phi (up to 40 % off just below r) long before the
// KS distance notices it.
TEST(Rng, GaussianBandSharesMatchPhi) {
  const std::vector<double> z = normal_draws(2031);
  const std::vector<double> edges{0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, kZigguratR};
  std::vector<double> counts(edges.size() - 1, 0.0);
  for (const double v : z) {
    const double a = std::abs(v);
    for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
      if (a >= edges[b] && a < edges[b + 1]) counts[b] += 1.0;
    }
  }
  const double n = static_cast<double>(z.size());
  for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
    const double p =
        std::erfc(edges[b] / std::sqrt(2.0)) - std::erfc(edges[b + 1] / std::sqrt(2.0));
    EXPECT_NEAR(counts[b], n * p, 5.0 * std::sqrt(n * p * (1.0 - p)))
        << "|z| in [" << edges[b] << ", " << edges[b + 1] << ")";
  }
}

TEST(Rng, GaussianSignsAreBalanced) {
  const std::vector<double> z = normal_draws(2030);
  double positive = 0.0;
  double tail = 0.0;
  double tail_positive = 0.0;
  for (const double v : z) {
    if (v > 0.0) positive += 1.0;
    if (std::abs(v) > kZigguratR) {
      tail += 1.0;
      if (v > 0.0) tail_positive += 1.0;
    }
  }
  // Binomial(n, 1/2) counts: 5 sigma is 2.5 sqrt(n). The tail path returns
  // through its own branch, so its signs are checked on their own.
  const double n = static_cast<double>(z.size());
  EXPECT_NEAR(positive, 0.5 * n, 2.5 * std::sqrt(n));
  ASSERT_GT(tail, 0.0);
  EXPECT_NEAR(tail_positive, 0.5 * tail, 2.5 * std::sqrt(tail));
}

TEST(Rng, GaussianScalesMeanAndStddev) {
  Rng rng{7};
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, GaussianRejectsNegativeStddev) {
  Rng rng{1};
  EXPECT_THROW(rng.gaussian(0.0, -1.0), precondition_error);
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng rng{11};
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.coin();
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.01);
}

TEST(Rng, CoinBiasFollowsProbability) {
  Rng rng{13};
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.coin(0.9);
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.9, 0.01);
}

TEST(Rng, GaussianVectorHasRequestedSizeAndScale) {
  Rng rng{17};
  const auto v = rng.gaussian_vector(50000, 3.0);
  ASSERT_EQ(v.size(), 50000u);
  double sumsq = 0.0;
  for (double x : v) sumsq += x * x;
  EXPECT_NEAR(std::sqrt(sumsq / static_cast<double>(v.size())), 3.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{2024};
  Rng child = parent.fork(1);
  Rng child2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next_u32() == child2.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a{2024};
  Rng b{2024};
  Rng ca = a.fork(9);
  Rng cb = b.fork(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u32(), cb.next_u32());
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Adjacent inputs should differ in many bits.
  const std::uint64_t d = mix64(100) ^ mix64(101);
  EXPECT_GT(std::popcount(d), 10);
}

class RngUniformBelowRange : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RngUniformBelowRange, StaysBelowBoundAndHitsEveryValueForSmallN) {
  const std::uint32_t n = GetParam();
  Rng rng{mix64(n)};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_below(n);
    ASSERT_LT(v, n);
    seen.insert(v);
  }
  if (n <= 16) {
    EXPECT_EQ(seen.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngUniformBelowRange,
                         ::testing::Values(1u, 2u, 3u, 10u, 16u, 1000u, 1u << 31));

}  // namespace
}  // namespace emts
