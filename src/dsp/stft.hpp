// Short-time Fourier transform: the time-frequency view. The spectral
// detector answers *whether* a Trojan's tone is present; the spectrogram
// answers *when* it appeared within a stream — turning the runtime monitor's
// alarm into a forensic timestamp.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/window.hpp"

namespace emts::dsp {

struct Spectrogram {
  // magnitude[frame][bin]: window-corrected amplitude.
  std::vector<std::vector<double>> magnitude;
  double sample_rate = 0.0;
  std::size_t window_length = 0;
  std::size_t hop = 0;

  std::size_t frames() const { return magnitude.size(); }
  std::size_t bins() const { return magnitude.empty() ? 0 : magnitude.front().size(); }

  /// Start time (seconds) of frame f.
  double frame_time(std::size_t frame) const;

  /// Center frequency (Hz) of bin b.
  double bin_frequency(std::size_t bin) const;

  /// Bin whose center is nearest to f (clamped).
  std::size_t bin_of(double frequency_hz) const;

  /// Mean magnitude over [f_lo, f_hi] in frame `frame`.
  double band_power(std::size_t frame, double f_lo, double f_hi) const;
};

struct StftOptions {
  std::size_t window_length = 1024;  // power of two
  std::size_t hop = 512;
  WindowKind window = WindowKind::kHann;
  bool remove_mean = true;
};

/// Computes the magnitude spectrogram. Every frame runs through one
/// SpectrumAnalyzer built for window_length (`window` and `remove_mean` are
/// its SpectrumOptions), so a frame's bins equal amplitude_spectrum of that
/// frame. Requires signal.size() >= window_length, power-of-two window, and
/// 0 < hop <= window_length.
Spectrogram stft(const std::vector<double>& signal, double sample_rate,
                 const StftOptions& options = {});

/// First frame where the band's power exceeds `factor` times the quiet
/// baseline (the 25th percentile across frames — so the band must be silent
/// in at least a quarter of the recording); returns frames() when no
/// activation is found.
std::size_t find_band_activation(const Spectrogram& spec, double f_lo, double f_hi,
                                 double factor = 4.0);

}  // namespace emts::dsp
