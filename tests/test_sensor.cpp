#include "sensor/measurement.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace emts::sensor {
namespace {

ChainSpec ideal_chain() {
  ChainSpec chain;
  chain.gain = 1.0;
  chain.bandwidth_hz = 1e12;  // effectively flat
  chain.adc_bits = 0;         // no quantization
  return chain;
}

NoiseSpec no_noise() {
  NoiseSpec noise;
  noise.thermal_rms_v = 0.0;
  noise.environment_rms_v = 0.0;
  return noise;
}

TEST(MeasurementChain, IdealChainIsTransparent) {
  const MeasurementChain chain{ideal_chain(), no_noise()};
  emts::Rng rng{1};
  const std::vector<double> emf{0.1, -0.2, 0.3, 0.0};
  const auto out = chain.measure(emf, 1e6, rng);
  ASSERT_EQ(out.size(), emf.size());
  for (std::size_t i = 0; i < emf.size(); ++i) EXPECT_NEAR(out[i], emf[i], 1e-9);
}

TEST(MeasurementChain, GainScalesSignal) {
  ChainSpec chain = ideal_chain();
  chain.gain = 10.0;
  const MeasurementChain mc{chain, no_noise()};
  emts::Rng rng{2};
  const auto out = mc.measure({0.05, -0.05}, 1e6, rng);
  EXPECT_NEAR(out[0], 0.5, 1e-6);
  EXPECT_NEAR(out[1], -0.5, 1e-6);
}

TEST(MeasurementChain, NoiseHasConfiguredRms) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.environment_rms_v = 1e-3;
  noise.environment_pickup = 0.5;
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{3};
  const auto out = mc.measure(std::vector<double>(100000, 0.0), 1e9, rng);
  EXPECT_NEAR(stats::rms(out), 0.5e-3, 0.02e-3);
}

TEST(MeasurementChain, ThermalAndAmbientNoiseAddInQuadrature) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.thermal_rms_v = 0.3e-3;
  noise.environment_rms_v = 1e-3;
  noise.environment_pickup = 0.4;
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{12};
  const auto out = mc.measure(std::vector<double>(100000, 0.0), 1e9, rng);
  const double expected = std::hypot(0.3e-3, 1e-3 * 0.4);  // 0.5 mV
  EXPECT_NEAR(stats::rms(out), expected, 0.02 * expected);
}

TEST(MeasurementChain, NoiselessChainDrawsNothing) {
  const MeasurementChain mc{ideal_chain(), no_noise()};
  const std::vector<double> emf{0.1, -0.2, 0.3, 0.0, 0.05};
  emts::Rng rng{13};
  emts::Rng untouched = rng;
  emts::Rng other{14};
  const auto out = mc.measure(emf, 1e9, rng);
  EXPECT_EQ(out, mc.measure(emf, 1e9, other));
  for (std::size_t i = 0; i < emf.size(); ++i) EXPECT_NEAR(out[i], emf[i], 1e-9);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(MeasurementChain, PickupFactorScalesAmbient) {
  ChainSpec chain = ideal_chain();
  NoiseSpec shielded = no_noise();
  shielded.environment_rms_v = 1e-3;
  shielded.environment_pickup = 0.1;
  NoiseSpec open = shielded;
  open.environment_pickup = 1.0;
  emts::Rng rng_a{4};
  emts::Rng rng_b{4};
  const auto quiet = MeasurementChain{chain, shielded}.measure(
      std::vector<double>(50000, 0.0), 1e9, rng_a);
  const auto loud = MeasurementChain{chain, open}.measure(
      std::vector<double>(50000, 0.0), 1e9, rng_b);
  EXPECT_NEAR(stats::rms(loud) / stats::rms(quiet), 10.0, 0.5);
}

TEST(MeasurementChain, InterferenceToneAppearsAtItsFrequency) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.tones = {{1e6, 0.01}};
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{5};
  const auto out = mc.measure(std::vector<double>(8192, 0.0), 16e6, rng);
  // RMS of a 10 mV sine is ~7.07 mV.
  EXPECT_NEAR(stats::rms(out), 0.01 / std::sqrt(2.0), 5e-4);
}

TEST(MeasurementChain, TonePhaseVariesBetweenCaptures) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.tones = {{1e6, 0.01}};
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{6};
  const auto a = mc.measure(std::vector<double>(1024, 0.0), 16e6, rng);
  const auto b = mc.measure(std::vector<double>(1024, 0.0), 16e6, rng);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 0.1);
}

TEST(MeasurementChain, DriftWandersSlowly) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.drift_rms_v = 1e-3;
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{7};
  const auto out = mc.measure(std::vector<double>(65536, 0.0), 1e9, rng);
  // Random walk: the second half should sit at a visibly different level
  // than machine epsilon, and adjacent samples should be highly correlated.
  EXPECT_GT(stats::rms(out), 1e-5);
  std::vector<double> head(out.begin(), out.begin() + 32768);
  std::vector<double> shifted(out.begin() + 1, out.begin() + 32769);
  EXPECT_GT(stats::pearson_correlation(head, shifted), 0.99);
}

TEST(MeasurementChain, AdcQuantizesToLsbGrid) {
  ChainSpec chain = ideal_chain();
  chain.adc_bits = 8;
  chain.adc_full_scale_v = 1.0;
  const MeasurementChain mc{chain, no_noise()};
  emts::Rng rng{8};
  const auto out = mc.measure({0.123456, -0.98765, 0.5}, 1e6, rng);
  const double lsb = 2.0 / 256.0;
  for (double v : out) {
    EXPECT_NEAR(std::remainder(v, lsb), 0.0, 1e-12);
  }
}

TEST(MeasurementChain, AdcClipsAtFullScale) {
  ChainSpec chain = ideal_chain();
  chain.adc_bits = 8;
  chain.adc_full_scale_v = 0.5;
  const MeasurementChain mc{chain, no_noise()};
  emts::Rng rng{9};
  const auto out = mc.measure({3.0, -3.0}, 1e6, rng);
  EXPECT_LE(out[0], 0.5 + 1e-12);
  EXPECT_GE(out[1], -0.5 - 1e-12);
}

TEST(MeasurementChain, BandwidthLimitsFastSignals) {
  ChainSpec chain = ideal_chain();
  chain.bandwidth_hz = 1e6;
  const MeasurementChain mc{chain, no_noise()};
  emts::Rng rng{10};
  // 50 MHz tone through a 1 MHz chain: heavily attenuated.
  std::vector<double> emf(8192);
  for (std::size_t i = 0; i < emf.size(); ++i) {
    emf[i] = std::sin(2.0 * 3.14159265358979 * 50e6 * static_cast<double>(i) / 1e9);
  }
  const auto out = mc.measure(emf, 1e9, rng);
  EXPECT_LT(stats::rms(std::vector<double>(out.begin() + 4096, out.end())), 0.1);
}

TEST(MeasurementChain, GainJitterVariesBetweenCaptures) {
  ChainSpec chain = ideal_chain();
  NoiseSpec noise = no_noise();
  noise.gain_jitter_rel = 0.05;
  const MeasurementChain mc{chain, noise};
  emts::Rng rng{11};
  const std::vector<double> emf(256, 0.1);
  const auto a = mc.measure(emf, 1e6, rng);
  const auto b = mc.measure(emf, 1e6, rng);
  EXPECT_NE(a[200], b[200]);
  EXPECT_NEAR(a[200], 0.1, 0.03);
}

TEST(MeasurementChain, RejectsInvalidSpecs) {
  EXPECT_THROW(MeasurementChain(ChainSpec{0.0, 1e6, 1.0, 8}, no_noise()),
               emts::precondition_error);
  EXPECT_THROW(MeasurementChain(ChainSpec{1.0, 0.0, 1.0, 8}, no_noise()),
               emts::precondition_error);
  EXPECT_THROW(MeasurementChain(ChainSpec{1.0, 1e6, 1.0, 99}, no_noise()),
               emts::precondition_error);
  NoiseSpec bad = no_noise();
  bad.thermal_rms_v = -1.0;
  EXPECT_THROW(MeasurementChain(ideal_chain(), bad), emts::precondition_error);
}

TEST(MeasurementChain, RejectsEmptyInput) {
  const MeasurementChain mc{ideal_chain(), no_noise()};
  emts::Rng rng{12};
  EXPECT_THROW(mc.measure({}, 1e6, rng), emts::precondition_error);
  EXPECT_THROW(mc.measure({1.0}, 0.0, rng), emts::precondition_error);
}

}  // namespace
}  // namespace emts::sensor
