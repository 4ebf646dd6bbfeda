#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dft_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::dsp {
namespace {

void forward(std::vector<cplx>& data) { FftPlan{data.size()}.forward(data); }

TEST(FftHelpers, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
}

TEST(FftHelpers, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  // The largest representable power of two is its own ceiling; anything
  // above it has none (the doubling would wrap to 0 and never terminate).
  const std::size_t top = (~std::size_t{0} >> 1) + 1;
  EXPECT_EQ(next_power_of_two(top), top);
  EXPECT_THROW(next_power_of_two(top + 1), emts::precondition_error);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<cplx> data(8, cplx{0, 0});
  data[0] = cplx{1, 0};
  forward(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalHasOnlyDc) {
  std::vector<cplx> data(16, cplx{2.5, 0});
  forward(data);
  EXPECT_NEAR(data[0].real(), 40.0, 1e-10);
  for (std::size_t k = 1; k < data.size(); ++k) EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-10);
}

TEST(Fft, SingleToneLandsInItsBin) {
  const std::size_t n = 256;
  const std::size_t tone_bin = 19;
  std::vector<cplx> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        2.0 * units::pi * static_cast<double>(tone_bin * i) / static_cast<double>(n);
    data[i] = cplx{std::cos(phase), 0.0};
  }
  forward(data);
  // cos tone of amplitude 1 -> N/2 in bins +/- tone.
  EXPECT_NEAR(std::abs(data[tone_bin]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(data[n - tone_bin]), static_cast<double>(n) / 2.0, 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone_bin || k == n - tone_bin) continue;
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-8);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> data(12);
  EXPECT_THROW(forward(data), emts::precondition_error);
}

TEST(Fft, LinearityHolds) {
  emts::Rng rng{314};
  const std::size_t n = 64;
  std::vector<cplx> a(n);
  std::vector<cplx> b(n);
  std::vector<cplx> combo(n);
  const cplx alpha{2.0, -1.0};
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = cplx{rng.gaussian(), rng.gaussian()};
    b[i] = cplx{rng.gaussian(), rng.gaussian()};
    combo[i] = alpha * a[i] + b[i];
  }
  forward(a);
  forward(b);
  forward(combo);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expected = alpha * a[k] + b[k];
    EXPECT_NEAR(std::abs(combo[k] - expected), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConserved) {
  emts::Rng rng{2718};
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = cplx{rng.gaussian(), 0.0};
    time_energy += std::norm(x);
  }
  forward(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6 * time_energy);
}

// The kernel against a direct DFT that shares no FFT code with it, at every
// power of two up to 4096 points: an even log2 runs radix-4 passes only, an
// odd one a twiddle-free radix-2 pass first.
class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, AgreesWithQuadraticReference) {
  const std::size_t n = GetParam();
  Rng rng{mix64(n)};
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.gaussian(), rng.gaussian()};

  auto fast = x;
  FftPlan{n}.forward(fast);
  const auto slow = oracle::naive_dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-8) << "bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsDft,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                                        1024, 2048, 4096));

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan{0}, emts::precondition_error);
  EXPECT_THROW(FftPlan{3}, emts::precondition_error);
  const FftPlan plan{8};
  std::vector<cplx> wrong(4);
  EXPECT_THROW(plan.forward(wrong), emts::precondition_error);
}

TEST(FftPlan, IsReusableAcrossTransforms) {
  const FftPlan plan{16};
  EXPECT_EQ(plan.size(), 16u);
  std::vector<cplx> first(16, cplx{1.0, 0.0});
  std::vector<cplx> second = first;
  plan.forward(first);
  plan.forward(second);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(first[k].real(), second[k].real());
    EXPECT_EQ(first[k].imag(), second[k].imag());
  }
}

}  // namespace
}  // namespace emts::dsp
