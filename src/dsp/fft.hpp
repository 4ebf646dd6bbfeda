// Iterative radix-4 Cooley–Tukey FFT, implemented from scratch. FftPlan is
// the library's only FFT, and dsp::SpectrumAnalyzer (dsp/spectrum.hpp) is
// the only library code that builds one: amplitude and mean spectra and
// the runtime monitor's running mean all run its half-size real-split
// transform. That is how the spectral Trojan detector
// (paper Sec. III-E / Fig. 4 / Fig. 6 i–l) sees EM traces in the frequency
// domain.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace emts::dsp {

using cplx = std::complex<double>;

/// True if n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n. Throws precondition_error when no such
/// std::size_t exists (n above 2^63 on 64-bit hosts).
std::size_t next_power_of_two(std::size_t n);

/// Precomputed forward FFT of one fixed power-of-two size. forward()
/// bit-reverses the input, runs one twiddle-free radix-2 pass when log2 n is
/// odd, then radix-4 passes (4, 16, ... or 8, 32, ... points per block up to
/// n), so a 2048-point transform makes 6 passes over the buffer instead of
/// the 11 of radix 2. The bit-reversal permutation and each radix-4 pass's
/// twiddles are cached at construction, so forward() performs no
/// allocations and no trigonometry.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);  // n must be a power of two

  std::size_t size() const { return n_; }

  /// In-place forward transform; requires data.size() == size().
  void forward(std::vector<cplx>& data) const;

 private:
  std::size_t n_ = 1;
  std::vector<std::size_t> reverse_;  // bit-reversal partner of each index
  // Radix-4 twiddles, pass after pass: for a pass over blocks of 4q points
  // and each k < q, the (re, im) doubles of W^k, W^2k and W^3k with
  // W = e^{-2πi/4q}, each from cos/sin directly, so a pass reads its
  // twiddles front to back.
  std::vector<double> twiddles_;
};

}  // namespace emts::dsp
