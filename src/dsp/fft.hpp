// Iterative radix-2 Cooley–Tukey FFT, implemented from scratch.
// Used by the spectral Trojan detector (paper Sec. III-E / Fig. 4 / Fig. 6 i–l)
// to transform measured EM traces into the frequency domain.
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

/// In-place forward FFT. Requires power-of-two size.
void fft_in_place(std::vector<cplx>& data);

/// In-place inverse FFT (includes 1/N scaling). Requires power-of-two size.
void ifft_in_place(std::vector<cplx>& data);

/// Forward FFT of a real signal; zero-pads to the next power of two.
/// Returns the full complex spectrum (size = padded length).
std::vector<cplx> fft_real(const std::vector<double>& signal);

/// Inverse FFT returning the real part (imaginary residue discarded).
std::vector<double> ifft_real(std::vector<cplx> spectrum);

/// Precomputed forward FFT of one fixed power-of-two size: the bit-reversal
/// permutation and every stage's twiddle factors are cached at construction,
/// so forward() performs no allocations and no trigonometry. The twiddles
/// are generated with the exact same recurrence the one-shot fft_in_place
/// uses (w *= wlen per butterfly), so a plan's output is bit-identical to
/// fft_in_place for every input — the streaming monitor can swap between the
/// two paths without perturbing a single score.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);  // n must be a power of two

  std::size_t size() const { return n_; }

  /// In-place forward transform; requires data.size() == size().
  void forward(std::vector<cplx>& data) const;

 private:
  std::size_t n_ = 1;
  std::vector<std::size_t> reverse_;  // bit-reversal partner of each index
  std::vector<cplx> twiddles_;        // per-stage tables, stages concatenated
};

}  // namespace emts::dsp
