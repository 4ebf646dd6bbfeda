#include "dsp/stft.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "util/assert.hpp"

namespace emts::dsp {

double Spectrogram::frame_time(std::size_t frame) const {
  return static_cast<double>(frame * hop) / sample_rate;
}

double Spectrogram::bin_frequency(std::size_t bin) const {
  return sample_rate * static_cast<double>(bin) / static_cast<double>(window_length);
}

std::size_t Spectrogram::bin_of(double frequency_hz) const {
  EMTS_REQUIRE(bins() > 0, "empty spectrogram");
  const double width = sample_rate / static_cast<double>(window_length);
  const auto idx = static_cast<std::size_t>(std::max(0.0, std::round(frequency_hz / width)));
  return std::min(idx, bins() - 1);
}

double Spectrogram::band_power(std::size_t frame, double f_lo, double f_hi) const {
  EMTS_REQUIRE(frame < frames(), "frame out of range");
  EMTS_REQUIRE(f_hi >= f_lo, "band must be ordered");
  const std::size_t lo = bin_of(f_lo);
  const std::size_t hi = bin_of(f_hi);
  double acc = 0.0;
  for (std::size_t b = lo; b <= hi; ++b) acc += magnitude[frame][b];
  return acc / static_cast<double>(hi - lo + 1);
}

Spectrogram stft(const std::vector<double>& signal, double sample_rate,
                 const StftOptions& options) {
  EMTS_REQUIRE(sample_rate > 0.0, "sample rate must be positive");
  EMTS_REQUIRE(is_power_of_two(options.window_length), "window length must be a power of two");
  EMTS_REQUIRE(options.hop > 0 && options.hop <= options.window_length,
               "hop must be in (0, window_length]");
  EMTS_REQUIRE(signal.size() >= options.window_length, "signal shorter than one window");

  Spectrogram spec;
  spec.sample_rate = sample_rate;
  spec.window_length = options.window_length;
  spec.hop = options.hop;

  SpectrumAnalyzer analyzer{SpectrumOptions{options.window, options.remove_mean}};
  analyzer.ensure_stream(options.window_length, sample_rate);
  std::vector<double> frame;
  for (std::size_t start = 0; start + options.window_length <= signal.size();
       start += options.hop) {
    const auto first = signal.begin() + static_cast<std::ptrdiff_t>(start);
    frame.assign(first, first + static_cast<std::ptrdiff_t>(options.window_length));
    std::vector<double> mags;
    analyzer.stream_transform(frame, mags);
    spec.magnitude.push_back(std::move(mags));
  }
  return spec;
}

std::size_t find_band_activation(const Spectrogram& spec, double f_lo, double f_hi,
                                 double factor) {
  EMTS_REQUIRE(spec.frames() >= 3, "need at least 3 frames");
  EMTS_REQUIRE(factor > 1.0, "activation factor must exceed 1");

  std::vector<double> power(spec.frames());
  for (std::size_t f = 0; f < spec.frames(); ++f) power[f] = spec.band_power(f, f_lo, f_hi);

  // Baseline from the quiet quartile: robust as long as the band is silent
  // in at least ~25% of the frames (the median would fail once the tone is
  // on for most of the recording).
  std::vector<double> sorted = power;
  std::sort(sorted.begin(), sorted.end());
  const double baseline = sorted[sorted.size() / 4];
  const double threshold = factor * std::max(baseline, 1e-300);

  for (std::size_t f = 0; f < spec.frames(); ++f) {
    if (power[f] > threshold) return f;
  }
  return spec.frames();
}

}  // namespace emts::dsp
