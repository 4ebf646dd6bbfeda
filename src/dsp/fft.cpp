#include "dsp/fft.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::dsp {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  EMTS_REQUIRE(n <= (~std::size_t{0} >> 1) + 1,
               "next_power_of_two: n has no power-of-two ceiling");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_{n} {
  EMTS_REQUIRE(is_power_of_two(n), "FftPlan requires a power-of-two length");

  reverse_.assign(n_, 0);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    reverse_[i] = j;
  }

  twiddles_.resize(n_ / 2);
  for (std::size_t k = 0; k < twiddles_.size(); ++k) {
    const double angle = -2.0 * units::pi * static_cast<double>(k) / static_cast<double>(n_);
    twiddles_[k] = cplx{std::cos(angle), std::sin(angle)};
  }
}

void FftPlan::forward(std::vector<cplx>& data) const {
  EMTS_REQUIRE(data.size() == n_, "FftPlan::forward: size mismatch with plan");
  for (std::size_t i = 1; i < n_; ++i) {
    if (i < reverse_[i]) std::swap(data[i], data[reverse_[i]]);
  }
  // [complex.numbers] lays a std::complex<double> array out as interleaved
  // (re, im) doubles. The butterflies spell the complex multiply out in
  // real arithmetic: without -ffast-math, GCC guards every std::complex
  // multiply with a NaN check and a __muldc3 call.
  double* x = reinterpret_cast<double*>(data.data());
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = 2 * (n_ / len);  // doubles between this stage's twiddles
    for (std::size_t i = 0; i < n_; i += len) {
      double* a = x + 2 * i;
      double* b = a + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw[k * stride];
        const double wi = tw[k * stride + 1];
        const double br = b[2 * k];
        const double bi = b[2 * k + 1];
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ar = a[2 * k];
        const double ai = a[2 * k + 1];
        a[2 * k] = ar + vr;
        a[2 * k + 1] = ai + vi;
        b[2 * k] = ar - vr;
        b[2 * k + 1] = ai - vi;
      }
    }
  }
}

}  // namespace emts::dsp
