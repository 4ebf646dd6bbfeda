#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

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
