#include "dsp/window.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"

namespace emts::dsp {
namespace {

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowKind::kRectangular, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannStartsAtZero) {
  const auto w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);  // periodic form peaks at n/2
}

TEST(Window, HammingEndpointsNonZero) {
  const auto w = make_window(WindowKind::kHamming, 64);
  EXPECT_NEAR(w[0], 0.08, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, BlackmanNearZeroAtEdges) {
  const auto w = make_window(WindowKind::kBlackman, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

class WindowSymmetry : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowSymmetry, PeriodicWindowsAreSymmetricAroundCenter) {
  const auto w = make_window(GetParam(), 128);
  for (std::size_t i = 1; i < 64; ++i) {
    EXPECT_NEAR(w[i], w[128 - i], 1e-12) << "i=" << i;
  }
}

TEST_P(WindowSymmetry, ValuesBoundedByUnitInterval) {
  const auto w = make_window(GetParam(), 257);
  for (double v : w) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowSymmetry,
                         ::testing::Values(WindowKind::kRectangular, WindowKind::kHann,
                                           WindowKind::kHamming, WindowKind::kBlackman));

TEST(Window, RejectsZeroLength) {
  EXPECT_THROW(make_window(WindowKind::kHann, 0), emts::precondition_error);
}

TEST(Window, CoherentGainOfHannIsHalfLength) {
  const auto w = make_window(WindowKind::kHann, 256);
  EXPECT_NEAR(coherent_gain(w), 128.0, 1e-9);
}

TEST(Window, CoherentGainOfRectIsLength) {
  const auto w = make_window(WindowKind::kRectangular, 100);
  EXPECT_DOUBLE_EQ(coherent_gain(w), 100.0);
}

}  // namespace
}  // namespace emts::dsp
