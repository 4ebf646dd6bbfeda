#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

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
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");

  std::vector<double> work = signal;
  if (options.remove_mean) {
    double mean = 0.0;
    for (double v : work) mean += v;
    mean /= static_cast<double>(work.size());
    for (double& v : work) v -= mean;
  }

  const auto window = make_window(options.window, work.size());
  work = apply_window(work, window);
  const double gain = coherent_gain(window);

  const auto full = fft_real(work);
  const std::size_t n = full.size();
  const std::size_t bins = n / 2 + 1;

  Spectrum out;
  out.frequency.resize(bins);
  out.amplitude.resize(bins);
  // Zero padding stretches the transform but not the physical duration; bins
  // are spaced by fs/n_padded while amplitude correction uses the window sum.
  for (std::size_t k = 0; k < bins; ++k) {
    out.frequency[k] = sample_rate * static_cast<double>(k) / static_cast<double>(n);
    const double mag = std::abs(full[k]);
    const bool interior = (k != 0) && (k != n / 2);
    out.amplitude[k] = (interior ? 2.0 : 1.0) * mag / gain;
  }
  return out;
}

Spectrum mean_spectrum(const std::vector<std::vector<double>>& signals, double sample_rate,
                       const SpectrumOptions& options) {
  EMTS_REQUIRE(!signals.empty(), "mean_spectrum requires at least one trace");
  Spectrum acc = amplitude_spectrum(signals.front(), sample_rate, options);
  for (std::size_t i = 1; i < signals.size(); ++i) {
    EMTS_REQUIRE(signals[i].size() == signals.front().size(),
                 "mean_spectrum requires equal-length traces");
    const Spectrum s = amplitude_spectrum(signals[i], sample_rate, options);
    for (std::size_t k = 0; k < acc.amplitude.size(); ++k) acc.amplitude[k] += s.amplitude[k];
  }
  const double inv = 1.0 / static_cast<double>(signals.size());
  for (double& a : acc.amplitude) a *= inv;
  return acc;
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

void SpectrumAnalyzer::transform_into_amp(const std::vector<double>& signal) {
  // Detrend + window, mirroring amplitude_spectrum step for step (same
  // summation order, same window product).
  work_.assign(signal.begin(), signal.end());
  if (options_.remove_mean) {
    double mean = 0.0;
    for (double v : work_) mean += v;
    mean /= static_cast<double>(work_.size());
    for (double& v : work_) v -= mean;
  }
  for (std::size_t i = 0; i < work_.size(); ++i) work_[i] *= window_[i];

  if (padded_ < 2) {
    // A 1-point transform is the sample itself; bin 0 is not interior.
    amp_[0] = std::fabs(work_[0]) / gain_;
    return;
  }
  // Real-split: even samples ride the real lane, odd samples the imaginary
  // lane of one N/2 complex FFT. Conjugate symmetry untangles the two real
  // half-streams E (even) and O (odd), and the classic decimation-in-time
  // recombination X[k] = E[k] + e^{-2πik/N}·O[k] yields the length-N real
  // transform for k = 0..N/2 — one flat-latency FFT per push.
  const std::size_t half = padded_ / 2;
  data_half_.assign(half, cplx{0.0, 0.0});
  const std::size_t n = work_.size();
  for (std::size_t i = 0; i < half; ++i) {
    const double re = (2 * i < n) ? work_[2 * i] : 0.0;
    const double im = (2 * i + 1 < n) ? work_[2 * i + 1] : 0.0;
    data_half_[i] = cplx{re, im};
  }
  plan_half_->forward(data_half_);

  const std::size_t bins = half + 1;
  for (std::size_t k = 0; k < bins; ++k) {
    const std::size_t kk = k < half ? k : 0;     // k = half wraps to bin 0
    const std::size_t mm = k == 0 ? 0 : half - k;  // mirror bin; k = 0 and half -> 0
    const double zr = data_half_[kk].real();
    const double zi = data_half_[kk].imag();
    const double mr = data_half_[mm].real();
    const double mi = -data_half_[mm].imag();  // conj(Z[half-k])
    const double er = 0.5 * (zr + mr);         // E[k] = (Z[k] + conj(Z[m])) / 2
    const double ei = 0.5 * (zi + mi);
    const double odd_r = 0.5 * (zi - mi);      // O[k] = -i (Z[k] - conj(Z[m])) / 2
    const double odd_i = -0.5 * (zr - mr);
    const double tr = stream_tw_[k].real();
    const double ti = stream_tw_[k].imag();
    const double xr = er + tr * odd_r - ti * odd_i;
    const double xi = ei + tr * odd_i + ti * odd_r;
    const double mag = std::sqrt(xr * xr + xi * xi);  // no hypot: amplitudes cannot overflow
    const bool interior = (k != 0) && (k != half);
    amp_[k] = (interior ? 2.0 : 1.0) * mag / gain_;
  }
}

void SpectrumAnalyzer::ensure_stream(std::size_t trace_length, double sample_rate) {
  EMTS_REQUIRE(trace_length > 0, "SpectrumAnalyzer requires a non-empty signal");
  EMTS_REQUIRE(sample_rate > 0.0, "sample_rate must be positive");
  if (trace_length != signal_length_ || sample_rate != sample_rate_) {
    ++warmups_;
    signal_length_ = trace_length;
    sample_rate_ = sample_rate;
    window_ = make_window(options_.window, trace_length);
    gain_ = coherent_gain(window_);
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
      data_half_.reserve(half);
      stream_tw_.resize(half + 1);
      for (std::size_t k = 0; k <= half; ++k) {
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

void SpectrumAnalyzer::stream_transform(const std::vector<double>& signal,
                                        std::vector<double>& amp_out) {
  EMTS_REQUIRE(signal.size() == signal_length_,
               "SpectrumAnalyzer::stream_transform: trace length differs from ensure_stream()");
  transform_into_amp(signal);
  amp_out.assign(amp_.begin(), amp_.end());
}

void SpectrumAnalyzer::stream_push(const std::vector<double>& signal,
                                   std::vector<double>& amp_out) {
  stream_transform(signal, amp_out);
  EMTS_REQUIRE(stream_sum_.size() == amp_out.size(),
               "SpectrumAnalyzer::stream_push before ensure_stream()");
  for (std::size_t k = 0; k < stream_sum_.size(); ++k) stream_sum_[k] += amp_out[k];
  ++stream_count_;
  ++stream_updates_;
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
