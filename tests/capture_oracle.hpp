// Test-side reference capture that shares none of the library's fast
// paths: module_transients -> CurrentTrace::derivative -> a per-module
// read-modify-write Faraday loop -> a naive measurement chain (a copy, one
// Rng::gaussian() per noise sample, tones, drift, jitter, the gain as its
// own pass, OnePoleLowPass::process, std::clamp and std::round). The
// capture tests compare sim::Chip and array::ArrayCapture against it bit
// for bit, so every fixed-workload row and fused pass must keep exactly the
// operations this spells out.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsp/filter.hpp"
#include "layout/floorplan.hpp"
#include "sensor/measurement.hpp"
#include "sim/chip.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace emts::oracle {

/// Bit patterns of a waveform, so a comparison tells -0.0 from +0.0.
inline std::vector<std::uint64_t> bits_of(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// dI/dt of every module, one fresh vector each, straight from the window's
/// module_transients().
inline std::vector<std::vector<double>> reference_derivatives(const sim::Chip& chip,
                                                              bool encrypting,
                                                              std::uint64_t trace_index) {
  std::vector<std::vector<double>> didt;
  for (const power::CurrentTrace& current : chip.module_transients(encrypting, trace_index)) {
    didt.push_back(current.derivative());
  }
  return didt;
}

/// Faraday's law as a per-module read-modify-write loop over a zeroed emf.
inline std::vector<double> reference_emf(std::span<const double> couplings,
                                         const std::vector<std::vector<double>>& didt) {
  std::vector<double> emf(didt.front().size(), 0.0);
  for (std::size_t m = 0; m < didt.size(); ++m) {
    if (couplings[m] == 0.0) continue;
    for (std::size_t i = 0; i < emf.size(); ++i) emf[i] -= couplings[m] * didt[m][i];
  }
  return emf;
}

/// Every module's coupling into one of the chip's pickups, floorplan order.
inline std::vector<double> pickup_couplings(const sim::Chip& chip, sim::Pickup pickup) {
  std::vector<double> out;
  for (const layout::PlacedModule& module : chip.floorplan().modules()) {
    out.push_back(chip.coupling(module.name, pickup));
  }
  return out;
}

/// The measurement chain, one step per pass.
inline std::vector<double> reference_measure(const sensor::MeasurementChain& chain,
                                             const std::vector<double>& emf, double sample_rate,
                                             Rng& rng) {
  const sensor::NoiseSpec& noise = chain.noise();
  const sensor::ChainSpec& spec = chain.chain();
  const std::size_t n = emf.size();
  std::vector<double> signal = emf;

  const double noise_rms =
      std::hypot(noise.thermal_rms_v, noise.environment_rms_v * noise.environment_pickup);
  if (noise_rms > 0.0) {
    for (double& v : signal) v += noise_rms * rng.gaussian();
  }
  for (const sensor::InterferenceTone& tone : noise.tones) {
    const double phase = rng.uniform(0.0, 2.0 * units::pi);
    const double w = 2.0 * units::pi * tone.frequency_hz / sample_rate;
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] += tone.amplitude_v * std::sin(w * static_cast<double>(i) + phase);
    }
  }
  if (noise.drift_rms_v > 0.0) {
    const double step = noise.drift_rms_v / std::sqrt(static_cast<double>(n));
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      level += rng.gaussian(0.0, step);
      signal[i] += level;
    }
  }
  double gain = spec.gain;
  if (noise.gain_jitter_rel > 0.0) gain *= 1.0 + rng.gaussian(0.0, noise.gain_jitter_rel);
  for (double& v : signal) v *= gain;

  dsp::OnePoleLowPass lp{spec.bandwidth_hz, sample_rate};
  signal = lp.process(signal);

  if (spec.adc_bits > 0) {
    const double fs = spec.adc_full_scale_v;
    const double lsb = 2.0 * fs / static_cast<double>(1 << spec.adc_bits);
    for (double& v : signal) {
      v = std::clamp(v, -fs, fs);
      v = std::round(v / lsb) * lsb;
    }
  }
  return signal;
}

/// The noise salts of the chip's pickups and of array coil `sensor`.
inline std::uint64_t pickup_salt(sim::Pickup pickup) {
  return pickup == sim::Pickup::kOnChipSensor ? 0x0c1ULL : 0xe72ULL;
}
inline std::uint64_t sensor_salt(std::size_t sensor) {
  return mix64(0xa77a1ULL + static_cast<std::uint64_t>(sensor));
}

/// One pickup's recorded trace: the reference emf through the pickup's chain.
inline std::vector<double> reference_capture(const sim::Chip& chip,
                                             const sensor::MeasurementChain& chain,
                                             sim::Pickup pickup,
                                             const std::vector<std::vector<double>>& didt,
                                             bool encrypting, std::uint64_t trace_index) {
  Rng rng = chip.capture_rng(encrypting, trace_index, pickup_salt(pickup));
  return reference_measure(chain, reference_emf(pickup_couplings(chip, pickup), didt),
                           chip.sample_rate(), rng);
}

}  // namespace emts::oracle
