#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::stats {
namespace {

TEST(Descriptive, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({-5}), -5.0);
}

TEST(Descriptive, MeanRejectsEmpty) {
  EXPECT_THROW(mean({}), emts::precondition_error);
}

TEST(Descriptive, VarianceIsUnbiased) {
  // Sample variance of {2, 4, 4, 4, 5, 5, 7, 9} with n-1 denominator is 32/7.
  EXPECT_NEAR(variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
}

TEST(Descriptive, VarianceRequiresTwoSamples) {
  EXPECT_THROW(variance({1.0}), emts::precondition_error);
}

TEST(Descriptive, StddevIsSqrtVariance) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(variance(v)));
}

TEST(Descriptive, RmsOfSine) {
  std::vector<double> v(10000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) / 100.0);
  }
  EXPECT_NEAR(rms(v), 1.0 / std::sqrt(2.0), 1e-3);
}

TEST(Descriptive, RmsOfConstant) {
  EXPECT_DOUBLE_EQ(rms({-3, -3, -3}), 3.0);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> v{3, -1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 5.0);
}

TEST(Descriptive, QuantileEndpointsAndMedian) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Descriptive, QuantileRejectsBadP) {
  EXPECT_THROW(quantile({1.0, 2.0}, -0.1), emts::precondition_error);
  EXPECT_THROW(quantile({1.0, 2.0}, 1.1), emts::precondition_error);
}

TEST(Descriptive, MedianUnsortedInput) {
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
}

// quantile_in_place selects instead of sorting; every value must still be
// the one linear interpolation over a full sort gives, bit for bit.
TEST(Descriptive, QuantileInPlaceMatchesAFullSortBitForBit) {
  auto full_sort_quantile = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  emts::Rng rng{4242};
  std::vector<std::size_t> sizes{1, 2, 3, 4, 2048, 2049};
  for (int i = 0; i < 60; ++i) sizes.push_back(1 + rng.next_u64() % 2049);
  for (std::size_t n : sizes) {
    // Values from a pool of n / 4 + 1 draws, so most sizes repeat values.
    std::vector<double> pool(n / 4 + 1);
    for (double& v : pool) v = rng.gaussian();
    std::vector<double> values(n);
    for (double& v : values) v = pool[rng.next_u64() % pool.size()];
    for (double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      std::vector<double> scratch = values;
      EXPECT_EQ(quantile_in_place(scratch, p), full_sort_quantile(values, p))
          << "n " << n << " p " << p;
    }
  }
}

TEST(Descriptive, PerfectPositiveAndNegativeCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  std::vector<double> neg_y{-2, -4, -6, -8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(x, neg_y), -1.0, 1e-12);
}

TEST(Descriptive, UncorrelatedNoiseNearZero) {
  emts::Rng rng{3};
  std::vector<double> a(20000);
  std::vector<double> b(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
  }
  EXPECT_NEAR(pearson_correlation(a, b), 0.0, 0.03);
}

TEST(Descriptive, CorrelationRejectsConstantInput) {
  EXPECT_THROW(pearson_correlation({1, 1, 1}, {1, 2, 3}), emts::precondition_error);
}

}  // namespace
}  // namespace emts::stats
