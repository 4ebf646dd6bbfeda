// Amplitude spectra and peak finding. This is the frequency-domain view the
// paper uses for A2-style Trojan detection (Sec. III-E, Fig. 4, Fig. 6 i-l):
// the circuit concentrates energy at its clock and harmonics; fast-toggling
// Trojan triggers add new spots or raise existing ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "util/binio.hpp"

namespace emts::dsp {

/// One-sided amplitude spectrum of a real signal.
struct Spectrum {
  std::vector<double> frequency;  // Hz, bin centers, size n/2+1
  std::vector<double> amplitude;  // window-corrected amplitude per bin

  std::size_t size() const { return amplitude.size(); }

  /// Index of the bin whose center is nearest to f (clamped to range).
  std::size_t bin_of(double f) const;

  /// Resolution in Hz between adjacent bins.
  double bin_width() const;
};

struct SpectrumOptions {
  WindowKind window = WindowKind::kHann;
  bool remove_mean = true;  // suppress the DC bin so it never masks tones
};

/// Computes the one-sided amplitude spectrum. `sample_rate` in Hz.
/// The signal is zero-padded to a power of two.
Spectrum amplitude_spectrum(const std::vector<double>& signal, double sample_rate,
                            const SpectrumOptions& options = {});

/// Averaged amplitude spectrum over several traces of equal length.
Spectrum mean_spectrum(const std::vector<std::vector<double>>& signals, double sample_rate,
                       const SpectrumOptions& options = {});

/// A local maximum in a spectrum.
struct SpectralPeak {
  std::size_t bin = 0;
  double frequency = 0.0;
  double amplitude = 0.0;
};

/// Local maxima above `min_amplitude`, bin-ordered, at most `max_peaks`.
/// A bin qualifies when it exceeds both neighbours. When more than
/// `max_peaks` bins qualify, the *strongest* peaks are kept (selection by
/// amplitude, not by bin position — a Trojan carrier high in the band must
/// survive truncation) and the survivors are returned in bin order.
std::vector<SpectralPeak> find_peaks(const Spectrum& spectrum, double min_amplitude,
                                     std::size_t max_peaks = 32);

/// find_peaks writing into a caller-owned vector (cleared first): identical
/// results, zero allocations once the vector's capacity is warm.
void find_peaks_into(const Spectrum& spectrum, double min_amplitude,
                     std::vector<SpectralPeak>& peaks, std::size_t max_peaks = 32);

/// Incremental mean spectrum over a stream of equal-length signals: the
/// runtime monitor's spectral path. Caches the window coefficients, one
/// half-size FFT plan and every working buffer for one trace length, so a
/// push performs zero heap allocations after the first (warm-up) pass.
///
/// Each push is one real-split FFT (even samples in the real lane, odd in the
/// imaginary lane of an N/2 complex transform) whose amplitudes land in a
/// caller-owned buffer and are added into a running per-bin sum.
/// stream_mean() divides the sum by the live count, so a window boundary
/// costs one O(bins) pass instead of W FFTs. Per-push amplitudes match
/// amplitude_spectrum to floating-point rounding (a few ULPs per bin); an
/// exact rebuild from the cached amplitudes (stream_reset +
/// stream_accumulate in arrival order) bounds accumulator drift and is
/// bit-identical to re-summing the same values. The free amplitude_spectrum
/// / mean_spectrum functions stay the offline path and the test oracle.
///
/// ensure_stream() prepares the caches for a trace length / sample rate;
/// resizing the accumulator is only legal while it is empty
/// (stream_count() == 0) — shape changes mid-stream are a caller bug.
class SpectrumAnalyzer {
 public:
  explicit SpectrumAnalyzer(const SpectrumOptions& options = {});

  const SpectrumOptions& options() const { return options_; }

  void ensure_stream(std::size_t trace_length, double sample_rate);
  /// Amplitude spectrum of one signal into `amp_out` (resized to bins).
  void stream_transform(const std::vector<double>& signal, std::vector<double>& amp_out);
  /// stream_transform + add the amplitudes into the running sum. Counts as
  /// one incremental update toward the drift-bounding rebuild cadence.
  void stream_push(const std::vector<double>& signal, std::vector<double>& amp_out);
  /// Adds an already-computed amplitude vector into the running sum without
  /// advancing the update counter (rebuild / restore path).
  void stream_accumulate(const std::vector<double>& amp);
  /// Zeroes the running sum and count. Deliberately does NOT reset the
  /// lifetime update counter: rebuild cadence is measured in total
  /// incremental operations, so drift stays bounded even under tumbling
  /// windows that reset the accumulator every window.
  void stream_reset();
  /// Marks an exact rebuild complete (zeroes the update counter).
  void stream_mark_rebuilt();
  /// Mean of the accumulated spectra; valid until the next stream_mean()
  /// call. Requires stream_count() > 0.
  const Spectrum& stream_mean();
  /// Overwrites the accumulator bit-exactly (snapshot restore).
  void stream_restore(const std::vector<double>& sum, std::size_t count,
                      std::uint64_t updates_since_rebuild);

  const std::vector<double>& stream_sum() const { return stream_sum_; }
  std::size_t stream_count() const { return stream_count_; }
  std::uint64_t stream_updates_since_rebuild() const { return stream_updates_; }
  std::size_t stream_bins() const { return stream_sum_.size(); }

  /// Number of times the caches had to be (re)built — a new trace length or
  /// sample rate. Stays constant across pushes once the analyzer is warm.
  std::size_t warmups() const { return warmups_; }

 private:
  /// Detrend + window one signal into work_ (same arithmetic order as
  /// amplitude_spectrum), then the real-split half-size FFT into amp_.
  void transform_into_amp(const std::vector<double>& signal);

  SpectrumOptions options_;
  std::size_t signal_length_ = 0;
  std::size_t padded_ = 0;            // signal_length_ zero-padded to 2^k
  double sample_rate_ = 0.0;
  std::vector<double> window_;        // coefficients for signal_length_
  double gain_ = 0.0;                 // coherent gain of window_
  std::vector<double> work_;          // detrended + windowed signal
  std::vector<double> amp_;           // per-trace amplitude scratch
  Spectrum out_;                      // stream_mean() result buffer
  std::size_t warmups_ = 0;
  std::optional<FftPlan> plan_half_;  // N/2 plan for the real-split transform
  std::vector<cplx> data_half_;       // half-size FFT working buffer
  std::vector<cplx> stream_tw_;       // untangle twiddles e^{-2πik/N}, half+1
  std::vector<double> stream_sum_;    // running per-bin amplitude sum
  std::size_t stream_count_ = 0;      // live traces in the running sum
  std::uint64_t stream_updates_ = 0;  // incremental ops since last rebuild
};

/// Binary round-trip of a reference spectrum (the spectral detector's golden
/// model in an EMCA calibration artifact). load_spectrum restores the bins
/// bit-identically and throws precondition_error on truncation or mismatch.
void save_spectrum(util::ByteWriter& out, const Spectrum& spectrum);
Spectrum load_spectrum(util::ByteReader& in);

}  // namespace emts::dsp
