#include "dsp/resample.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace emts::dsp {
namespace {

TEST(DecimateMean, AveragesBlocks) {
  const std::vector<double> sig{1, 3, 5, 7, 9, 11};
  const auto out = decimate_mean(sig, 2);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
  EXPECT_DOUBLE_EQ(out[2], 10.0);
}

TEST(DecimateMean, DropsTrailingPartialBlock) {
  const std::vector<double> sig{1, 2, 3, 4, 5};
  EXPECT_EQ(decimate_mean(sig, 2).size(), 2u);
}

TEST(DecimateMean, FactorOneIsIdentity) {
  const std::vector<double> sig{1, -2, 3};
  const auto out = decimate_mean(sig, 1);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < sig.size(); ++i) EXPECT_DOUBLE_EQ(out[i], sig[i]);
}

TEST(DecimateMean, RejectsZeroFactor) {
  EXPECT_THROW(decimate_mean({1.0}, 0), emts::precondition_error);
}

}  // namespace
}  // namespace emts::dsp
