#include "sensor/measurement.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/filter.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::sensor {

MeasurementChain::MeasurementChain(const ChainSpec& chain, const NoiseSpec& noise)
    : chain_{chain}, noise_{noise} {
  EMTS_REQUIRE(chain.gain > 0.0, "gain must be positive");
  EMTS_REQUIRE(chain.bandwidth_hz > 0.0, "bandwidth must be positive");
  EMTS_REQUIRE(chain.adc_full_scale_v > 0.0, "ADC full scale must be positive");
  EMTS_REQUIRE(chain.adc_bits >= 0 && chain.adc_bits <= 24, "ADC bits out of range");
  EMTS_REQUIRE(noise.thermal_rms_v >= 0.0 && noise.environment_rms_v >= 0.0 &&
                   noise.environment_pickup >= 0.0 && noise.drift_rms_v >= 0.0 &&
                   noise.gain_jitter_rel >= 0.0,
               "noise parameters must be non-negative");
}

std::vector<double> MeasurementChain::measure(const std::vector<double>& emf_v,
                                              double sample_rate, emts::Rng& rng) const {
  EMTS_REQUIRE(!emf_v.empty(), "measure requires a non-empty emf waveform");
  EMTS_REQUIRE(sample_rate > 0.0, "sample rate must be positive");

  const std::size_t n = emf_v.size();
  std::vector<double> signal = emf_v;

  // Coil-referred noise is injected before the amplifier. Thermal and
  // ambient noise are independent normals, so their sum is one normal with
  // the root-sum-square rms: one draw per sample.
  const double noise_rms = std::hypot(noise_.thermal_rms_v,
                                      noise_.environment_rms_v * noise_.environment_pickup);
  if (noise_rms > 0.0) {
    for (double& v : signal) v += noise_rms * rng.gaussian();
  }

  // Narrowband interferers arrive with random phase each capture.
  for (const InterferenceTone& tone : noise_.tones) {
    const double phase = rng.uniform(0.0, 2.0 * units::pi);
    const double w = 2.0 * units::pi * tone.frequency_hz / sample_rate;
    for (std::size_t i = 0; i < n; ++i) {
      signal[i] += tone.amplitude_v * std::sin(w * static_cast<double>(i) + phase);
    }
  }

  // Slow baseline wander (probe positioning / supply drift).
  if (noise_.drift_rms_v > 0.0) {
    const double step = noise_.drift_rms_v / std::sqrt(static_cast<double>(n));
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      level += rng.gaussian(0.0, step);
      signal[i] += level;
    }
  }

  // Amplifier: per-capture gain error, then bandwidth limit.
  double gain = chain_.gain;
  if (noise_.gain_jitter_rel > 0.0) {
    gain *= 1.0 + rng.gaussian(0.0, noise_.gain_jitter_rel);
  }
  for (double& v : signal) v *= gain;

  dsp::OnePoleLowPass lp{chain_.bandwidth_hz, sample_rate};
  signal = lp.process(signal);

  // Oscilloscope ADC: clip to full scale, quantize.
  if (chain_.adc_bits > 0) {
    const double fs = chain_.adc_full_scale_v;
    const double lsb = 2.0 * fs / static_cast<double>(1 << chain_.adc_bits);
    for (double& v : signal) {
      v = std::clamp(v, -fs, fs);
      v = std::round(v / lsb) * lsb;
    }
  }
  return signal;
}

}  // namespace emts::sensor
