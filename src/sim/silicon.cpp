#include "sim/silicon.hpp"

#include "util/rng.hpp"

namespace emts::sim {

namespace {

constexpr double kProcessSigma = 0.03;        // relative geometry/drive variation
constexpr double kLabAmbientFactor = 1.6;     // lab vs simulation broadband noise
constexpr double kExternalDriftRmsV = 40e-6;  // probe positioning / cable wander
constexpr double kGainJitterRel = 0.08;       // probe positioning repeatability

}  // namespace

ChipConfig make_silicon_config(const SiliconOptions& options) {
  ChipConfig config = make_default_config();
  config.seed ^= mix64(options.chip_serial);

  // Per-chip process corner: geometry and drive-strength variation shows up
  // as small reproducible deviations of the die stack the couplings are
  // computed from.
  Rng corner{mix64(options.chip_serial) ^ 0x51c0ULL};
  const auto vary = [&](double nominal) {
    return nominal * (1.0 + corner.gaussian(0.0, kProcessSigma));
  };
  config.die.cell_z = vary(config.die.cell_z);
  config.die.grid_z = vary(config.die.grid_z);
  config.die.sensor_z = config.die.grid_z + vary(config.die.sensor_z - config.die.grid_z);
  config.die.package_top = vary(config.die.package_top);
  // Local metal/ILD variation: each module's loop inductance moves on its
  // own, so different dies have differently *shaped* fingerprints.
  config.coupling_mismatch_sigma = kProcessSigma;

  // Lab ambient is louder than the simulated white-noise floor, but only
  // the probe's open-air loop collects it — the on-chip sensor sits inside
  // the package and keeps its simulated noise floor (the paper's measured
  // on-chip SNR even slightly *exceeds* its simulation).
  config.external_noise.environment_rms_v *= kLabAmbientFactor;

  // Probe-only lab effects. Gain jitter is the dominant one: a manually
  // positioned probe's pickup varies by several percent capture to capture,
  // which smears its distance distributions (Fig. 6 top row) while leaving
  // the RMS-ratio SNR almost untouched.
  config.external_noise.drift_rms_v = kExternalDriftRmsV;
  config.external_noise.gain_jitter_rel = kGainJitterRel;
  config.onchip_noise.gain_jitter_rel = kGainJitterRel * 0.05;
  // FM / VHF pickup on the probe loop.
  config.external_noise.tones = {
      {27.12e6, 18e-6},   // ISM-band pickup
      {98.3e6, 26e-6},    // FM broadcast
      {145.8e6, 12e-6},   // VHF
  };

  return config;
}

}  // namespace emts::sim
