#include "dsp/filter.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::dsp {

std::vector<double> moving_average(const std::vector<double>& signal, std::size_t window_length) {
  std::vector<double> prefix;
  std::vector<double> out;
  moving_average_into(signal, window_length, prefix, out);
  return out;
}

void moving_average_into(const std::vector<double>& signal, std::size_t window_length,
                         std::vector<double>& prefix, std::vector<double>& out) {
  EMTS_REQUIRE(window_length % 2 == 1, "moving_average requires an odd window length");
  EMTS_REQUIRE(!signal.empty(), "moving_average requires a non-empty signal");
  const std::size_t n = signal.size();
  const std::size_t half = window_length / 2;
  out.assign(n, 0.0);

  // Prefix sums make the smoother O(n) independent of window size.
  prefix.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + signal[i];

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = (i >= half) ? i - half : 0;
    const std::size_t hi = std::min(i + half, n - 1);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
}

OnePoleLowPass::OnePoleLowPass(double cutoff_hz, double sample_rate) : alpha_{0.0} {
  EMTS_REQUIRE(cutoff_hz > 0.0, "cutoff must be positive");
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");
  // Exact discretization of a one-pole RC low-pass.
  alpha_ = 1.0 - std::exp(-2.0 * units::pi * cutoff_hz / sample_rate);
}

std::vector<double> OnePoleLowPass::process(const std::vector<double>& signal) {
  reset();
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = step(signal[i]);
  return out;
}

void OnePoleLowPass::reset() { state_ = 0.0; }

std::vector<double> differentiate(const std::vector<double>& signal, double sample_rate) {
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");
  if (signal.empty()) return {};
  std::vector<double> out(signal.size(), 0.0);
  for (std::size_t i = 1; i < signal.size(); ++i) {
    out[i] = (signal[i] - signal[i - 1]) * sample_rate;
  }
  if (signal.size() > 1) out[0] = out[1];
  return out;
}

}  // namespace emts::dsp
