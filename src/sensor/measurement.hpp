// Measurement chain: what stands between the coil's induced emf and the
// numbers the analysis module sees. Covers the paper's acquisition setup —
// differential sensor output ("the voltage differences between the start
// point and end point of the coil"), amplifier gain and bandwidth, the
// oscilloscope ADC, and the noise environment. The noise model is where the
// on-chip sensor earns its SNR advantage: a small shielded on-die loop picks
// up far less ambient interference than a probe dangling over the package.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace emts::sensor {

/// One narrowband interferer (lab equipment, radio pickup): silicon-mode
/// external probes see several of these (paper Sec. V-A: "more unintended
/// influences").
struct InterferenceTone {
  double frequency_hz = 0.0;
  double amplitude_v = 0.0;
};

struct NoiseSpec {
  double thermal_rms_v = 2e-6;        // front-end / coil thermal noise
  double environment_rms_v = 60e-6;   // ambient broadband noise at the probe
  double environment_pickup = 1.0;    // how much ambient this coil collects
  std::vector<InterferenceTone> tones;  // narrowband interferers
  double drift_rms_v = 0.0;           // slow baseline wander (random walk)
  double gain_jitter_rel = 0.0;       // per-capture multiplicative gain error
};

struct ChainSpec {
  double gain = 40.0;            // amplifier, V/V
  double bandwidth_hz = 500e6;   // one-pole low-pass cutoff
  double adc_full_scale_v = 1.0; // ADC range is [-fs, +fs] after gain
  int adc_bits = 10;             // 0 = ideal (no quantization)
};

/// Simulates one capture through the chain.
class MeasurementChain {
 public:
  MeasurementChain(const ChainSpec& chain, const NoiseSpec& noise);

  /// Processes an induced-emf waveform (volts at the coil terminals) into
  /// the recorded trace, in place: move the emf in and the trace comes back
  /// in its buffer. Noise draws come from `rng`, so captures are
  /// reproducible per trace seed.
  std::vector<double> measure(std::vector<double> emf_v, double sample_rate,
                              emts::Rng& rng) const;

  const ChainSpec& chain() const { return chain_; }
  const NoiseSpec& noise() const { return noise_; }

 private:
  ChainSpec chain_;
  NoiseSpec noise_;
};

}  // namespace emts::sensor
