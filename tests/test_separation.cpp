#include "stats/separation.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::stats {
namespace {

std::vector<double> normal_sample(std::uint64_t seed, double mean, double sd, std::size_t n) {
  emts::Rng rng{seed};
  std::vector<double> out(n);
  for (double& v : out) v = rng.gaussian(mean, sd);
  return out;
}

TEST(Overlap, IdenticalDistributionsNearOne) {
  const auto a = normal_sample(1, 0.0, 1.0, 20000);
  const auto b = normal_sample(2, 0.0, 1.0, 20000);
  EXPECT_GT(overlap_coefficient(a, b), 0.9);
}

TEST(Overlap, DisjointDistributionsNearZero) {
  const auto a = normal_sample(3, 0.0, 0.5, 20000);
  const auto b = normal_sample(4, 100.0, 0.5, 20000);
  EXPECT_LT(overlap_coefficient(a, b), 0.05);
}

TEST(Overlap, PartialShiftIsIntermediate) {
  const auto a = normal_sample(5, 0.0, 1.0, 20000);
  const auto b = normal_sample(6, 1.0, 1.0, 20000);
  const double ov = overlap_coefficient(a, b);
  EXPECT_GT(ov, 0.3);
  EXPECT_LT(ov, 0.85);
}

TEST(Overlap, IsSymmetric) {
  const auto a = normal_sample(7, 0.0, 1.0, 5000);
  const auto b = normal_sample(8, 0.7, 1.3, 5000);
  EXPECT_NEAR(overlap_coefficient(a, b), overlap_coefficient(b, a), 1e-12);
}

TEST(Overlap, RejectsEmptyInput) {
  EXPECT_THROW(overlap_coefficient({}, {1.0}), emts::precondition_error);
}

TEST(ModeSeparation, ZeroishForIdenticalDistributions) {
  const auto a = normal_sample(15, 0.0, 1.0, 40000);
  const auto b = normal_sample(16, 0.0, 1.0, 40000);
  // Mode estimates jitter by a bin or two on finite samples; "zeroish" means
  // well under the ~2-sigma shifts the detector must flag.
  EXPECT_LT(mode_separation(a, b), 0.5);
}

TEST(ModeSeparation, DetectsPeakShift) {
  const auto a = normal_sample(17, 0.0, 1.0, 40000);
  const auto b = normal_sample(18, 2.0, 1.0, 40000);
  EXPECT_GT(mode_separation(a, b), 1.0);
}

}  // namespace
}  // namespace emts::stats
