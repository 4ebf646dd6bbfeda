#include "sensor/measurement.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "dsp/filter.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::sensor {

namespace {

// std::round without the libm call or a data-dependent branch: ties go
// away from zero and a zero result keeps the sign of q (std::round(-0.4)
// is -0.0). Below 2^52 the truncation t fits an int64, the fraction q - t
// is exact and so is its double, whose truncation is +-1 exactly when the
// fraction reaches a half. Larger magnitudes, infinities and NaN come back
// unchanged, as std::round returns them.
double round_half_away(double q) {
  if (!(std::abs(q) < 0x1p52)) return q;
  const auto t = static_cast<std::int64_t>(q);
  const double fraction = q - static_cast<double>(t);
  const std::int64_t r = t + static_cast<std::int64_t>(fraction + fraction);
  return std::copysign(static_cast<double>(r), q);
}

}  // namespace

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

std::vector<double> MeasurementChain::measure(std::vector<double> emf_v, double sample_rate,
                                              emts::Rng& rng) const {
  EMTS_REQUIRE(!emf_v.empty(), "measure requires a non-empty emf waveform");
  EMTS_REQUIRE(sample_rate > 0.0, "sample rate must be positive");

  const std::size_t n = emf_v.size();
  std::vector<double> signal = std::move(emf_v);

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

  // Amplifier: per-capture gain error, then bandwidth limit; then the
  // oscilloscope ADC clips to full scale and quantizes. One pass.
  double gain = chain_.gain;
  if (noise_.gain_jitter_rel > 0.0) {
    gain *= 1.0 + rng.gaussian(0.0, noise_.gain_jitter_rel);
  }
  // The filter runs on a copy whose address stays in this function, so its
  // state can live in a register across the in-place stores.
  const dsp::OnePoleLowPass bandwidth_limit{chain_.bandwidth_hz, sample_rate};
  dsp::OnePoleLowPass lp = bandwidth_limit;
  if (chain_.adc_bits == 0) {
    for (double& v : signal) v = lp.step(v * gain);
    return signal;
  }
  const double fs = chain_.adc_full_scale_v;
  const double lsb = 2.0 * fs / static_cast<double>(1 << chain_.adc_bits);
  for (double& v : signal) {
    const double y = lp.step(v * gain);
    // std::clamp(y, -fs, fs), spelled by value so y stays in a register.
    const double clipped = y < -fs ? -fs : (fs < y ? fs : y);
    v = round_half_away(clipped / lsb) * lsb;
  }
  return signal;
}

}  // namespace emts::sensor
