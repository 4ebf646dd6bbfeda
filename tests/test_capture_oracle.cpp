// Every simulated capture against the reference in capture_oracle.hpp, bit
// for bit: both pickups, single-pickup captures, the raw emf and 3x3 / 4x4
// array bundles, golden and with each Trojan armed, encrypting and idle,
// under both workload settings and in the default and silicon configs.
// Also the ADC's branch-free rounding against std::round.
#include "capture_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "array/capture.hpp"
#include "array/grid.hpp"
#include "sim/chip.hpp"
#include "sim/silicon.hpp"
#include "trojan/trojan.hpp"

namespace emts {
namespace {

using oracle::bits_of;
using sim::Pickup;

struct OracleConfig {
  const char* name;
  bool silicon;         // tones, drift and gain jitter in the chains, coupling mismatch
  bool fixed_workload;  // false: random traffic
};

void PrintTo(const OracleConfig& config, std::ostream* os) { *os << config.name; }

constexpr OracleConfig kConfigs[] = {
    {"default_fixed", false, true},
    {"default_random", false, false},
    {"silicon_fixed", true, true},
    {"silicon_random", true, false},
};

// Index 0, a small one, and two past 2^32: the Trojans' key-bit and phase
// arithmetic runs on 64-bit cycle and sample counts.
constexpr std::uint64_t kIndices[] = {0, 7, (1ULL << 32) + 5, 0x123456789abcULL};

sim::ChipConfig make_config(const OracleConfig& c) {
  sim::ChipConfig config =
      c.silicon ? sim::make_silicon_config(sim::SiliconOptions{}) : sim::make_default_config();
  config.fixed_challenge_workload = c.fixed_workload;
  return config;
}

class CaptureOracle : public ::testing::TestWithParam<OracleConfig> {};

TEST_P(CaptureOracle, EveryCaptureEqualsTheReference) {
  sim::Chip chip{make_config(GetParam())};
  const sensor::MeasurementChain onchip{chip.config().onchip_chain, chip.config().onchip_noise};
  const sensor::MeasurementChain external{chip.config().external_chain,
                                          chip.config().external_noise};
  const std::vector<double> onchip_m = oracle::pickup_couplings(chip, Pickup::kOnChipSensor);
  const std::vector<double> external_m = oracle::pickup_couplings(chip, Pickup::kExternalProbe);

  array::GridSpec spec3;
  spec3.nx = 3;
  spec3.ny = 3;
  const array::SensorGrid grid3{chip.floorplan(), spec3};
  const array::SensorGrid grid4{chip.floorplan(), array::GridSpec{}};
  const array::ArrayCapture capture3{grid3};
  const array::ArrayCapture capture4{grid4};
  const sensor::MeasurementChain coil{capture4.options().chain, capture4.options().noise};

  std::vector<std::optional<trojan::TrojanKind>> conditions{std::nullopt};
  for (const trojan::TrojanKind kind : trojan::kAllTrojanKinds) conditions.emplace_back(kind);

  for (const auto& condition : conditions) {
    if (condition) {
      chip.arm(*condition);
    } else {
      chip.disarm_all();
    }
    for (const bool encrypting : {true, false}) {
      for (const std::uint64_t index : kIndices) {
        SCOPED_TRACE(std::string(condition ? trojan::kind_label(*condition) : "golden") +
                     (encrypting ? " encrypting" : " idle") + " index " +
                     std::to_string(index));
        const auto didt = oracle::reference_derivatives(chip, encrypting, index);
        const auto onchip_ref = oracle::reference_capture(chip, onchip, Pickup::kOnChipSensor,
                                                          didt, encrypting, index);
        const auto external_ref = oracle::reference_capture(
            chip, external, Pickup::kExternalProbe, didt, encrypting, index);

        const sim::Acquisition pair = chip.capture(encrypting, index);
        EXPECT_EQ(bits_of(pair.onchip_v), bits_of(onchip_ref));
        EXPECT_EQ(bits_of(pair.external_v), bits_of(external_ref));
        EXPECT_EQ(bits_of(chip.capture(Pickup::kOnChipSensor, encrypting, index)),
                  bits_of(onchip_ref));
        EXPECT_EQ(bits_of(chip.capture(Pickup::kExternalProbe, encrypting, index)),
                  bits_of(external_ref));
        EXPECT_EQ(bits_of(chip.raw_emf(Pickup::kOnChipSensor, encrypting, index)),
                  bits_of(oracle::reference_emf(onchip_m, didt)));
        EXPECT_EQ(bits_of(chip.raw_emf(Pickup::kExternalProbe, encrypting, index)),
                  bits_of(oracle::reference_emf(external_m, didt)));

        for (const array::ArrayCapture* capture : {&capture3, &capture4}) {
          const array::Bundle bundle = capture->capture_bundle(chip, index, encrypting);
          const array::SensitivityMatrix& sens = capture->grid().sensitivity();
          ASSERT_EQ(bundle.sensor_count(), sens.sensors());
          for (std::size_t s = 0; s < sens.sensors(); ++s) {
            std::vector<double> row;
            for (std::size_t m = 0; m < sens.modules(); ++m) row.push_back(sens.at(s, m));
            Rng rng = chip.capture_rng(encrypting, index, oracle::sensor_salt(s));
            const auto want = oracle::reference_measure(coil, oracle::reference_emf(row, didt),
                                                        chip.sample_rate(), rng);
            EXPECT_EQ(bits_of(bundle.traces[s]), bits_of(want))
                << sens.sensors() << " coils, sensor " << s;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, CaptureOracle, ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<OracleConfig>& param_info) {
                           return std::string(param_info.param.name);
                         });

TEST(CaptureOracle, AdcRoundsLikeStdRound) {
  sensor::NoiseSpec quiet;
  quiet.thermal_rms_v = 0.0;
  quiet.environment_rms_v = 0.0;
  for (const int bits : {0, 1, 12, 24}) {
    for (const double fs : {1.0, 0.3}) {
      // Unit gain and a bandwidth far above the sample rate make the
      // low-pass alpha exactly 1, and a zero before every value brings the
      // filter back to rest, so the ADC sees each value exactly.
      const sensor::ChainSpec spec{1.0, 1e12, fs, bits};
      const sensor::MeasurementChain chain{spec, quiet};
      const double lsb = 2.0 * fs / static_cast<double>(1 << (bits > 0 ? bits : 12));
      std::vector<double> emf;
      for (const double steps : {0.5, 1.5, 2.5, 0.3, 0.49999999999999994, 0.7, 1.0, 0.0}) {
        for (const double sign : {1.0, -1.0}) {
          emf.push_back(0.0);
          emf.push_back(sign * steps * lsb);
        }
      }
      for (const double volts : {fs, -fs, 2.0 * fs, -2.0 * fs, fs - 0.5 * lsb, -fs + 0.5 * lsb}) {
        emf.push_back(0.0);
        emf.push_back(volts);
      }
      Rng a{1};
      Rng b{1};
      const std::vector<double> got = chain.measure(emf, 1e6, a);
      EXPECT_EQ(bits_of(got), bits_of(oracle::reference_measure(chain, emf, 1e6, b)))
          << bits << " bits, full scale " << fs;
    }
  }

  // Pinned values at 12 bits over +-1 V: ties go away from zero, a value
  // that rounds to zero from below stays -0.0, and +-fs pass unclipped.
  const sensor::MeasurementChain chain{sensor::ChainSpec{1.0, 1e12, 1.0, 12}, quiet};
  const double lsb = 2.0 / 4096.0;
  Rng rng{1};
  const std::vector<double> out = chain.measure(
      {0.0, 0.5 * lsb, 0.0, -0.5 * lsb, 0.0, 1.5 * lsb, 0.0, -1.5 * lsb, 0.0, -0.3 * lsb, 0.0,
       1.0, 0.0, -1.0, 0.0, 3.0},
      1e6, rng);
  EXPECT_EQ(out[1], lsb);
  EXPECT_EQ(out[3], -lsb);
  EXPECT_EQ(out[5], 2.0 * lsb);
  EXPECT_EQ(out[7], -2.0 * lsb);
  EXPECT_EQ(out[9], 0.0);
  EXPECT_TRUE(std::signbit(out[9]));
  EXPECT_EQ(out[11], 1.0);
  EXPECT_EQ(out[13], -1.0);
  EXPECT_EQ(out[15], 1.0);
}

}  // namespace
}  // namespace emts
