#include "sim/chip.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/silicon.hpp"
#include "stats/descriptive.hpp"
#include "stats/snr.hpp"
#include "util/assert.hpp"

namespace emts::sim {
namespace {

// One shared chip: construction computes couplings, so reuse across tests.
Chip& shared_chip() {
  static Chip chip{make_default_config()};
  chip.disarm_all();
  return chip;
}

TEST(Chip, DefaultConfigIsSelfConsistent) {
  const ChipConfig config = make_default_config();
  EXPECT_DOUBLE_EQ(config.clock.frequency, 48e6);
  EXPECT_EQ(config.trace_cycles * config.clock.samples_per_cycle, 4096u);
  EXPECT_GT(config.onchip_chain.gain, 0.0);
  // On-chip sensor must pick up less ambient than the open-air probe.
  EXPECT_LT(config.onchip_noise.environment_pickup, config.external_noise.environment_pickup);
}

TEST(Chip, CaptureShapesMatchConfig) {
  Chip& chip = shared_chip();
  const auto acq = chip.capture(true, 1);
  EXPECT_EQ(acq.onchip_v.size(), chip.samples_per_trace());
  EXPECT_EQ(acq.external_v.size(), chip.samples_per_trace());
  EXPECT_EQ(acq.of(Pickup::kOnChipSensor).size(), acq.onchip_v.size());
}

TEST(Chip, CapturesAreReproduciblePerTraceIndex) {
  Chip& chip = shared_chip();
  const auto a = chip.capture(true, 42);
  const auto b = chip.capture(true, 42);
  for (std::size_t i = 0; i < a.onchip_v.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.onchip_v[i], b.onchip_v[i]);
    ASSERT_DOUBLE_EQ(a.external_v[i], b.external_v[i]);
  }
}

TEST(Chip, DifferentTraceIndicesDiffer) {
  Chip& chip = shared_chip();
  const auto a = chip.capture(true, 1);
  const auto b = chip.capture(true, 2);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.onchip_v.size(); ++i) {
    diff += std::abs(a.onchip_v[i] - b.onchip_v[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Chip, EncryptingIsLouderThanIdle) {
  Chip& chip = shared_chip();
  const auto active = chip.capture(true, 5);
  const auto idle = chip.capture(false, 6);
  EXPECT_GT(stats::rms(active.onchip_v), 3.0 * stats::rms(idle.onchip_v));
}

TEST(Chip, ArmDisarmBookkeeping) {
  Chip& chip = shared_chip();
  chip.arm(trojan::TrojanKind::kT2Leakage);
  EXPECT_TRUE(chip.is_armed(trojan::TrojanKind::kT2Leakage));
  EXPECT_FALSE(chip.is_armed(trojan::TrojanKind::kT1AmLeak));
  chip.arm(trojan::TrojanKind::kT1AmLeak);  // arming another swaps
  EXPECT_FALSE(chip.is_armed(trojan::TrojanKind::kT2Leakage));
  chip.disarm_all();
  for (auto kind : trojan::kAllTrojanKinds) EXPECT_FALSE(chip.is_armed(kind));
}

TEST(Chip, ArmedTrojanChangesTheTrace) {
  Chip& chip = shared_chip();
  const auto golden = chip.capture(true, 9);
  chip.arm(trojan::TrojanKind::kT4PowerHog);
  const auto infected = chip.capture(true, 9);
  chip.disarm_all();
  double delta = 0.0;
  for (std::size_t i = 0; i < golden.onchip_v.size(); ++i) {
    delta += std::abs(golden.onchip_v[i] - infected.onchip_v[i]);
  }
  EXPECT_GT(delta, 1e-3);
}

TEST(Chip, OnChipSnrBeatsExternalByAbout12dB) {
  // The Sec. IV-B headline: ~29.98 dB on-chip vs ~17.48 dB external.
  Chip& chip = shared_chip();
  auto collect = [&](bool enc, std::uint64_t base, Pickup p) {
    std::vector<double> all;
    for (std::uint64_t t = 0; t < 6; ++t) {
      const auto acq = chip.capture(enc, base + t);
      const auto& v = acq.of(p);
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };
  const double snr_on = stats::snr_db(collect(true, 300, Pickup::kOnChipSensor),
                                      collect(false, 400, Pickup::kOnChipSensor));
  const double snr_ex = stats::snr_db(collect(true, 300, Pickup::kExternalProbe),
                                      collect(false, 400, Pickup::kExternalProbe));
  EXPECT_GT(snr_on, 26.0);
  EXPECT_LT(snr_on, 34.0);
  EXPECT_GT(snr_ex, 14.0);
  EXPECT_LT(snr_ex, 21.0);
  EXPECT_GT(snr_on - snr_ex, 8.0);
}

TEST(Chip, CouplingLookupMatchesFloorplan) {
  Chip& chip = shared_chip();
  for (const auto& m : chip.floorplan().modules()) {
    EXPECT_NE(chip.coupling(m.name, Pickup::kOnChipSensor), 0.0) << m.name;
  }
  EXPECT_THROW(chip.coupling("nonexistent", Pickup::kOnChipSensor), emts::precondition_error);
}

TEST(Chip, OnChipCouplingsBeatExternalForTrojans) {
  // The sensor sits microns above the Trojans; the probe 100 um above the
  // package. Stronger coupling is the physical root of the SNR advantage.
  Chip& chip = shared_chip();
  namespace mn = layout::module_names;
  for (const char* name : {mn::kTrojan1, mn::kTrojan2, mn::kTrojan3, mn::kTrojan4}) {
    EXPECT_GT(std::abs(chip.coupling(name, Pickup::kOnChipSensor)),
              std::abs(chip.coupling(name, Pickup::kExternalProbe)))
        << name;
  }
}

TEST(Chip, RawEmfIsNoiseFree) {
  Chip& chip = shared_chip();
  const auto a = chip.raw_emf(Pickup::kOnChipSensor, true, 7);
  const auto b = chip.raw_emf(Pickup::kOnChipSensor, true, 7);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  EXPECT_GT(stats::rms(a), 0.0);
}

TEST(Chip, TrojanModelAccessors) {
  Chip& chip = shared_chip();
  EXPECT_EQ(chip.trojan_model(trojan::TrojanKind::kT3Cdma).cell_count(), 250u);
  EXPECT_EQ(chip.trojan_model(trojan::TrojanKind::kA2Analog).cell_count(), 0u);
}

TEST(Chip, RejectsTooShortWindow) {
  ChipConfig config = make_default_config();
  config.trace_cycles = 4;  // shorter than one encryption
  EXPECT_THROW(Chip{config}, emts::precondition_error);
}

TEST(Chip, FixedWorkloadRepeatsAesActivityAcrossTraces) {
  // With the fixed challenge workload, the AES contribution is identical in
  // every window, and a dormant Trojan's trigger activity depends only on
  // the window length: the noise-free emf of two windows is bit-identical.
  Chip& chip = shared_chip();
  const auto a = chip.raw_emf(Pickup::kOnChipSensor, true, 11);
  const auto b = chip.raw_emf(Pickup::kOnChipSensor, true, 12);
  EXPECT_GT(stats::rms(a), 0.0);
  EXPECT_EQ(a, b);
}

TEST(Silicon, ConfigAddsLabEffectsToExternalProbe) {
  const ChipConfig silicon = make_silicon_config(SiliconOptions{});
  const ChipConfig clean = make_default_config();
  EXPECT_FALSE(silicon.external_noise.tones.empty());
  EXPECT_TRUE(clean.external_noise.tones.empty());
  EXPECT_GT(silicon.external_noise.drift_rms_v, 0.0);
  EXPECT_GT(silicon.external_noise.environment_rms_v, clean.external_noise.environment_rms_v);
}

TEST(Silicon, ChipSerialsGiveDifferentProcessCorners) {
  SiliconOptions a{};
  a.chip_serial = 1;
  SiliconOptions b{};
  b.chip_serial = 2;
  const ChipConfig ca = make_silicon_config(a);
  const ChipConfig cb = make_silicon_config(b);
  EXPECT_NE(ca.die.cell_z, cb.die.cell_z);
}

TEST(Silicon, SameSerialIsReproducible) {
  SiliconOptions opt{};
  opt.chip_serial = 5;
  const ChipConfig a = make_silicon_config(opt);
  const ChipConfig b = make_silicon_config(opt);
  EXPECT_DOUBLE_EQ(a.die.cell_z, b.die.cell_z);
  EXPECT_DOUBLE_EQ(a.die.grid_z, b.die.grid_z);
}

TEST(Silicon, StackOrderSurvivesProcessVariation) {
  for (std::uint64_t serial = 1; serial <= 20; ++serial) {
    SiliconOptions opt{};
    opt.chip_serial = serial;
    const ChipConfig config = make_silicon_config(opt);
    EXPECT_LT(config.die.cell_z, config.die.grid_z) << serial;
    EXPECT_LT(config.die.grid_z, config.die.sensor_z) << serial;
  }
}

}  // namespace
}  // namespace emts::sim
