#include "dsp/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

TEST(MovingAverage, ConstantSignalUnchanged) {
  const std::vector<double> sig(50, 3.0);
  const auto out = moving_average(sig, 5);
  for (double v : out) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(MovingAverage, WindowOneIsIdentity) {
  const std::vector<double> sig{1, -2, 3, 7};
  const auto out = moving_average(sig, 1);
  for (std::size_t i = 0; i < sig.size(); ++i) EXPECT_DOUBLE_EQ(out[i], sig[i]);
}

TEST(MovingAverage, InteriorValuesAreBlockMeans) {
  const std::vector<double> sig{0, 3, 6, 9, 12};
  const auto out = moving_average(sig, 3);
  EXPECT_DOUBLE_EQ(out[2], 6.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  // Edge uses the truncated window.
  EXPECT_DOUBLE_EQ(out[0], 1.5);
}

TEST(MovingAverage, ReducesNoiseVariance) {
  emts::Rng rng{8};
  std::vector<double> sig(4096);
  for (double& v : sig) v = rng.gaussian();
  const auto smooth = moving_average(sig, 9);
  double var_in = 0.0;
  double var_out = 0.0;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    var_in += sig[i] * sig[i];
    var_out += smooth[i] * smooth[i];
  }
  EXPECT_LT(var_out, var_in / 4.0);
}

TEST(MovingAverage, RejectsEvenWindow) {
  EXPECT_THROW(moving_average({1, 2, 3}, 2), emts::precondition_error);
}

TEST(MovingAverage, RejectsEmptySignal) {
  EXPECT_THROW(moving_average({}, 3), emts::precondition_error);
}

TEST(OnePoleLowPass, PassesDc) {
  OnePoleLowPass lp{10.0, 1000.0};
  double y = 0.0;
  for (int i = 0; i < 5000; ++i) y = lp.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(OnePoleLowPass, AttenuatesAboveCutoff) {
  const double fs = 100e3;
  const double fc = 1e3;
  OnePoleLowPass lp{fc, fs};
  // Tone at 10x cutoff should come out ~10x smaller (-20 dB/decade).
  std::vector<double> sig(8192);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = std::sin(2.0 * units::pi * 10.0 * fc * static_cast<double>(i) / fs);
  }
  const auto out = lp.process(sig);
  double peak = 0.0;
  for (std::size_t i = 4096; i < out.size(); ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_LT(peak, 0.2);
  EXPECT_GT(peak, 0.02);
}

TEST(OnePoleLowPass, MinusThreeDbAtCutoff) {
  const double fs = 1e6;
  const double fc = 10e3;
  OnePoleLowPass lp{fc, fs};
  std::vector<double> sig(1 << 16);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = std::sin(2.0 * units::pi * fc * static_cast<double>(i) / fs);
  }
  const auto out = lp.process(sig);
  double peak = 0.0;
  for (std::size_t i = sig.size() / 2; i < out.size(); ++i) peak = std::max(peak, std::abs(out[i]));
  EXPECT_NEAR(peak, 1.0 / std::sqrt(2.0), 0.03);
}

TEST(OnePoleLowPass, ResetClearsState) {
  OnePoleLowPass lp{100.0, 10e3};
  for (int i = 0; i < 100; ++i) lp.step(10.0);
  lp.reset();
  EXPECT_NEAR(lp.step(0.0), 0.0, 1e-12);
}

TEST(OnePoleLowPass, RejectsNonPositiveParameters) {
  EXPECT_THROW(OnePoleLowPass(0.0, 100.0), emts::precondition_error);
  EXPECT_THROW(OnePoleLowPass(10.0, 0.0), emts::precondition_error);
}

TEST(Differentiate, RampGivesConstantSlope) {
  const double fs = 100.0;
  std::vector<double> ramp(50);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = 2.0 * static_cast<double>(i) / fs;
  const auto d = differentiate(ramp, fs);
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_NEAR(d[i], 2.0, 1e-9);
  EXPECT_NEAR(d[0], 2.0, 1e-9);  // first sample copies the second
}

TEST(Differentiate, EmptyInputGivesEmptyOutput) {
  EXPECT_TRUE(differentiate({}, 1.0).empty());
}

}  // namespace
}  // namespace emts::dsp
