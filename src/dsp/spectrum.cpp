#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "dsp/fft.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"
#include "util/units.hpp"

namespace emts::dsp {

std::size_t Spectrum::bin_of(double f) const {
  EMTS_REQUIRE(!frequency.empty(), "bin_of on an empty spectrum");
  if (f <= frequency.front()) return 0;
  if (f >= frequency.back()) return frequency.size() - 1;
  const double width = bin_width();
  const auto idx = static_cast<std::size_t>(std::llround(f / width));
  return std::min(idx, frequency.size() - 1);
}

double Spectrum::bin_width() const {
  EMTS_REQUIRE(frequency.size() >= 2, "bin_width requires >= 2 bins");
  return frequency[1] - frequency[0];
}

Spectrum amplitude_spectrum(const std::vector<double>& signal, double sample_rate,
                            const SpectrumOptions& options) {
  EMTS_REQUIRE(!signal.empty(), "amplitude_spectrum requires a non-empty signal");
  return mean_spectrum({signal}, sample_rate, options);
}

Spectrum mean_spectrum(const std::vector<std::vector<double>>& signals, double sample_rate,
                       const SpectrumOptions& options) {
  EMTS_REQUIRE(!signals.empty(), "mean_spectrum requires at least one trace");
  SpectrumAnalyzer analyzer{options};
  analyzer.ensure_stream(signals.front().size(), sample_rate);
  std::vector<double> amp;
  for (const std::vector<double>& signal : signals) {
    EMTS_REQUIRE(signal.size() == signals.front().size(),
                 "mean_spectrum requires equal-length traces");
    analyzer.stream_push(signal, amp);
  }
  return analyzer.stream_mean();
}

std::vector<SpectralPeak> find_peaks(const Spectrum& spectrum, double min_amplitude,
                                     std::size_t max_peaks) {
  std::vector<SpectralPeak> peaks;
  find_peaks_into(spectrum, min_amplitude, peaks, max_peaks);
  return peaks;
}

void find_peaks_into(const Spectrum& spectrum, double min_amplitude,
                     std::vector<SpectralPeak>& peaks, std::size_t max_peaks) {
  peaks.clear();
  const auto& amp = spectrum.amplitude;
  for (std::size_t k = 1; k + 1 < amp.size(); ++k) {
    if (amp[k] >= min_amplitude && amp[k] > amp[k - 1] && amp[k] >= amp[k + 1]) {
      peaks.push_back({k, spectrum.frequency[k], amp[k]});
    }
  }
  if (peaks.size() > max_peaks) {
    // Truncation must drop the *weakest* peaks, wherever they sit on the
    // frequency axis: a Trojan carrier high in the band would otherwise be
    // the first casualty. Select by amplitude (ties broken by bin so the
    // result is deterministic), then restore bin order for the survivors.
    std::sort(peaks.begin(), peaks.end(), [](const SpectralPeak& a, const SpectralPeak& b) {
      if (a.amplitude != b.amplitude) return a.amplitude > b.amplitude;
      return a.bin < b.bin;
    });
    peaks.resize(max_peaks);
    std::sort(peaks.begin(), peaks.end(),
              [](const SpectralPeak& a, const SpectralPeak& b) { return a.bin < b.bin; });
  }
}

SpectrumAnalyzer::SpectrumAnalyzer(const SpectrumOptions& options) : options_{options} {}

namespace {

// The signal's mean, summed in stats::mean's order (dsp sits below stats).
double signal_mean(const std::vector<double>& signal) {
  double acc = 0.0;
  for (double v : signal) acc += v;
  return acc / static_cast<double>(signal.size());
}

}  // namespace

void SpectrumAnalyzer::transform_into_amp(const std::vector<double>& signal, double mean) {
  const double offset = options_.remove_mean ? mean : 0.0;
  const std::size_t n = signal.size();
  if (padded_ < 2) {
    // A 1-point transform is the sample itself; bin 0 is not interior.
    amp_[0] = std::fabs((signal[0] - offset) * window_[0]) * inv_gain_;
    return;
  }
  // Real-split: even samples ride the real lane, odd samples the imaginary
  // lane of one N/2 complex FFT. As doubles ([complex.numbers]) that lane
  // layout is the signal itself, so the detrended, windowed samples go
  // straight into the buffer and only the zero-padding tail is cleared.
  double* z = reinterpret_cast<double*>(data_half_.data());
  for (std::size_t i = 0; i < n; ++i) z[i] = (signal[i] - offset) * window_[i];
  std::fill(z + n, z + padded_, 0.0);
  plan_half_->forward(data_half_);

  // Conjugate symmetry untangles the two real half-streams E (even) and O
  // (odd), and the classic decimation-in-time recombination
  // X[k] = E[k] + e^{-2πik/N}·O[k] yields the length-N real transform for
  // k = 0..N/2 — one flat-latency FFT per push. At k = 0 and k = N/2 both
  // halves come from Z[0]: X = Re Z[0] ± Im Z[0].
  const std::size_t half = padded_ / 2;
  amp_[0] = std::fabs(z[0] + z[1]) * inv_gain_;
  amp_[half] = std::fabs(z[0] - z[1]) * inv_gain_;
  for (std::size_t k = 1; k < half; ++k) {
    const std::size_t m = half - k;  // mirror bin
    const double zr = z[2 * k];
    const double zi = z[2 * k + 1];
    const double mr = z[2 * m];
    const double mi = -z[2 * m + 1];     // conj(Z[half-k])
    const double er = 0.5 * (zr + mr);   // E[k] = (Z[k] + conj(Z[m])) / 2
    const double ei = 0.5 * (zi + mi);
    const double odd_r = 0.5 * (zi - mi);  // O[k] = -i (Z[k] - conj(Z[m])) / 2
    const double odd_i = -0.5 * (zr - mr);
    const double tr = stream_tw_[k].real();
    const double ti = stream_tw_[k].imag();
    const double xr = er + tr * odd_r - ti * odd_i;
    const double xi = ei + tr * odd_i + ti * odd_r;
    // No hypot: amplitudes cannot overflow.
    amp_[k] = std::sqrt(xr * xr + xi * xi) * twice_inv_gain_;
  }
}

void SpectrumAnalyzer::ensure_stream(std::size_t trace_length, double sample_rate) {
  EMTS_REQUIRE(trace_length > 0, "SpectrumAnalyzer requires a non-empty signal");
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");
  if (trace_length != signal_length_ || sample_rate != sample_rate_) {
    std::vector<double> window = make_window(options_.window, trace_length);
    const double gain = coherent_gain(window);
    // Every amplitude is scaled by 1/gain: a zero gain would turn the
    // spectrum into NaN and a negative one (Blackman at length 1 sums to
    // -1.4e-17) would flip its sign.
    EMTS_REQUIRE(gain > 0.0, std::string{"SpectrumAnalyzer: the "} +
                                 window_label(options_.window) + " window of length " +
                                 std::to_string(trace_length) +
                                 " has no positive coherent gain");
    ++warmups_;
    signal_length_ = trace_length;
    sample_rate_ = sample_rate;
    window_ = std::move(window);
    inv_gain_ = 1.0 / gain;
    twice_inv_gain_ = 2.0 / gain;
    padded_ = next_power_of_two(trace_length);

    const std::size_t bins = padded_ / 2 + 1;
    out_.frequency.resize(bins);
    out_.amplitude.resize(bins);
    amp_.resize(bins);
    for (std::size_t k = 0; k < bins; ++k) {
      out_.frequency[k] = sample_rate * static_cast<double>(k) / static_cast<double>(padded_);
    }

    const std::size_t half = padded_ / 2;
    if (half >= 1 && (!plan_half_.has_value() || plan_half_->size() != half)) {
      plan_half_.emplace(half);
      data_half_.resize(half);
      stream_tw_.resize(half);
      for (std::size_t k = 0; k < half; ++k) {
        const double angle =
            -2.0 * units::pi * static_cast<double>(k) / static_cast<double>(padded_);
        stream_tw_[k] = cplx{std::cos(angle), std::sin(angle)};
      }
    }
  }
  const std::size_t bins = padded_ / 2 + 1;
  if (stream_sum_.size() != bins) {
    // Resizing the accumulator is only legal while it is empty; a restored
    // update counter must survive the first post-restore preparation.
    EMTS_REQUIRE(stream_count_ == 0,
                 "SpectrumAnalyzer::ensure_stream: accumulator shape change mid-stream");
    stream_sum_.assign(bins, 0.0);
  }
}

void SpectrumAnalyzer::stream_transform(const std::vector<double>& signal, double mean,
                                        std::vector<double>& amp_out) {
  // Unprepared, the length check below would pass an empty signal through
  // to a 1-point transform over empty buffers.
  EMTS_REQUIRE(signal_length_ != 0, "SpectrumAnalyzer::stream_transform before ensure_stream()");
  EMTS_REQUIRE(signal.size() == signal_length_,
               "SpectrumAnalyzer::stream_transform: trace length differs from ensure_stream()");
  transform_into_amp(signal, mean);
  amp_out.assign(amp_.begin(), amp_.end());
}

void SpectrumAnalyzer::stream_transform(const std::vector<double>& signal,
                                        std::vector<double>& amp_out) {
  stream_transform(signal, signal_mean(signal), amp_out);
}

void SpectrumAnalyzer::stream_push(const std::vector<double>& signal, double mean,
                                   std::vector<double>& amp_out) {
  stream_transform(signal, mean, amp_out);
  EMTS_REQUIRE(stream_sum_.size() == amp_out.size(),
               "SpectrumAnalyzer::stream_push before ensure_stream()");
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) stream_sum_[k] += amp_out[k];
  ++stream_count_;
  ++stream_updates_;
}

void SpectrumAnalyzer::stream_push(const std::vector<double>& signal,
                                   std::vector<double>& amp_out) {
  stream_push(signal, signal_mean(signal), amp_out);
}

void SpectrumAnalyzer::stream_accumulate(const std::vector<double>& amp) {
  EMTS_REQUIRE(stream_sum_.size() == amp.size(),
               "SpectrumAnalyzer::stream_accumulate: bin count mismatch");
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) stream_sum_[k] += amp[k];
  ++stream_count_;
}

void SpectrumAnalyzer::stream_reset() {
  std::fill(stream_sum_.begin(), stream_sum_.end(), 0.0);
  stream_count_ = 0;
  // stream_updates_ deliberately survives: the rebuild cadence counts total
  // incremental operations, so drift stays bounded under tumbling windows
  // that reset the accumulator every window boundary.
}

void SpectrumAnalyzer::stream_mark_rebuilt() { stream_updates_ = 0; }

const Spectrum& SpectrumAnalyzer::stream_mean() {
  EMTS_REQUIRE(stream_count_ > 0, "SpectrumAnalyzer::stream_mean on an empty accumulator");
  EMTS_REQUIRE(stream_sum_.size() == out_.amplitude.size(),
               "SpectrumAnalyzer::stream_mean before ensure_stream()");
  const double inv = 1.0 / static_cast<double>(stream_count_);
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) out_.amplitude[k] = stream_sum_[k] * inv;
  return out_;
}

void SpectrumAnalyzer::stream_restore(const std::vector<double>& sum, std::size_t count,
                                      std::uint64_t updates_since_rebuild) {
  EMTS_REQUIRE(count == 0 || !sum.empty(),
               "SpectrumAnalyzer::stream_restore: non-zero count with empty sum");
  stream_sum_.assign(sum.begin(), sum.end());
  stream_count_ = count;
  stream_updates_ = updates_since_rebuild;
}

void save_spectrum(util::ByteWriter& out, const Spectrum& spectrum) {
  EMTS_REQUIRE(spectrum.frequency.size() == spectrum.amplitude.size(),
               "save_spectrum: ragged spectrum");
  out.f64_vec(spectrum.frequency);
  out.f64_vec(spectrum.amplitude);
}

Spectrum load_spectrum(util::ByteReader& in) {
  Spectrum spectrum;
  spectrum.frequency = in.f64_vec();
  spectrum.amplitude = in.f64_vec();
  EMTS_REQUIRE(spectrum.frequency.size() == spectrum.amplitude.size(),
               "load_spectrum: ragged spectrum");
  EMTS_REQUIRE(!spectrum.amplitude.empty(), "load_spectrum: empty spectrum");
  return spectrum;
}

}  // namespace emts::dsp
