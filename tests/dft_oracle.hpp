// Test-side reference transforms that share no FFT code with the library:
// an O(n^2) DFT, and the one-sided amplitude spectrum built on it with the
// detrend, window, zero-padding and scaling dsp::SpectrumAnalyzer applies.
// The FFT and analyzer tests compare against these.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"
#include "util/units.hpp"

namespace emts::oracle {

/// Direct DFT, X[k] = sum_t x[t] e^{-2πi kt/n}. The twiddle table is
/// indexed by (k·t) mod n: the angle stays below 2π, so the reference keeps
/// full precision at the monitor's plan size, and no trigonometry runs in
/// the O(n^2) loop.
inline std::vector<dsp::cplx> naive_dft(const std::vector<dsp::cplx>& x) {
  const std::size_t n = x.size();
  std::vector<dsp::cplx> twiddle(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = -2.0 * units::pi * static_cast<double>(j) / static_cast<double>(n);
    twiddle[j] = dsp::cplx{std::cos(angle), std::sin(angle)};
  }
  std::vector<dsp::cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    dsp::cplx acc{0.0, 0.0};
    std::size_t index = 0;  // (k·t) mod n
    for (std::size_t t = 0; t < n; ++t) {
      acc += x[t] * twiddle[index];
      index += k;
      if (index >= n) index -= n;
    }
    out[k] = acc;
  }
  return out;
}

/// One-sided amplitude spectrum of a real signal through naive_dft: remove
/// the mean (if asked), window, zero-pad to a power of two, then scale the
/// n/2 + 1 bins by 2/gain (1/gain at DC and Nyquist).
inline std::vector<double> dft_amplitude_spectrum(const std::vector<double>& signal,
                                                  const dsp::SpectrumOptions& options = {}) {
  const std::size_t n = signal.size();
  std::vector<double> work = signal;
  if (options.remove_mean) {
    double mean = 0.0;
    for (double v : work) mean += v;
    mean /= static_cast<double>(n);
    for (double& v : work) v -= mean;
  }
  const std::vector<double> window = dsp::make_window(options.window, n);
  const double gain = dsp::coherent_gain(window);

  const std::size_t padded = dsp::next_power_of_two(n);
  std::vector<dsp::cplx> x(padded, dsp::cplx{0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) x[i] = dsp::cplx{work[i] * window[i], 0.0};
  const std::vector<dsp::cplx> full = naive_dft(x);

  std::vector<double> amplitude(padded / 2 + 1);
  for (std::size_t k = 0; k < amplitude.size(); ++k) {
    const bool interior = k != 0 && k != padded / 2;
    amplitude[k] = (interior ? 2.0 : 1.0) * std::abs(full[k]) / gain;
  }
  return amplitude;
}

/// Bin-wise mean of dft_amplitude_spectrum over equal-length signals.
inline std::vector<double> dft_mean_spectrum(const std::vector<std::vector<double>>& signals,
                                             const dsp::SpectrumOptions& options = {}) {
  std::vector<double> sum;
  for (const std::vector<double>& signal : signals) {
    const std::vector<double> amplitude = dft_amplitude_spectrum(signal, options);
    sum.resize(amplitude.size(), 0.0);
    for (std::size_t k = 0; k < amplitude.size(); ++k) sum[k] += amplitude[k];
  }
  for (double& a : sum) a /= static_cast<double>(signals.size());
  return sum;
}

}  // namespace emts::oracle
