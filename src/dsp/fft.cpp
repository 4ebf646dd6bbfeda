#include "dsp/fft.hpp"

#include <bit>
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

namespace {

// log2 n is odd: one radix-2 pass of 2-point blocks precedes the radix-4 ones.
bool has_radix2_pass(std::size_t n) { return std::countr_zero(n) % 2 == 1; }

}  // namespace

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

  for (std::size_t q = has_radix2_pass(n_) ? 2 : 1; 4 * q <= n_; q *= 4) {
    for (std::size_t k = 0; k < q; ++k) {
      for (std::size_t power = 1; power <= 3; ++power) {
        const double angle = -2.0 * units::pi * static_cast<double>(power * k) /
                             static_cast<double>(4 * q);
        twiddles_.push_back(std::cos(angle));
        twiddles_.push_back(std::sin(angle));
      }
    }
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
  std::size_t q = 1;  // points per sub-transform entering the next pass
  if (has_radix2_pass(n_)) {
    for (std::size_t i = 0; i < 2 * n_; i += 4) {
      const double ar = x[i];
      const double ai = x[i + 1];
      const double br = x[i + 2];
      const double bi = x[i + 3];
      x[i] = ar + br;
      x[i + 1] = ai + bi;
      x[i + 2] = ar - br;
      x[i + 3] = ai - bi;
    }
    q = 2;
  }
  // After bit reversal, a block of 4q points holds four q-point transforms
  // of the block's subsequence: of its samples 4m, 4m+2, 4m+1 and 4m+3, in
  // that order. X[k + j·q] combines them with W^k, W^2k, W^3k (W = e^{-2πi/4q})
  // and the fourth roots of unity.
  const double* tw = twiddles_.data();
  for (; 4 * q <= n_; q *= 4) {
    for (std::size_t i = 0; i < n_; i += 4 * q) {
      double* a0 = x + 2 * i;
      double* a1 = a0 + 2 * q;
      double* a2 = a1 + 2 * q;
      double* a3 = a2 + 2 * q;
      for (std::size_t k = 0; k < q; ++k) {
        const double* w = tw + 6 * k;
        const double r1 = a1[2 * k];
        const double i1 = a1[2 * k + 1];
        const double r2 = a2[2 * k];
        const double i2 = a2[2 * k + 1];
        const double r3 = a3[2 * k];
        const double i3 = a3[2 * k + 1];
        const double b1r = r1 * w[2] - i1 * w[3];  // W^2k · (samples 4m+2)
        const double b1i = r1 * w[3] + i1 * w[2];
        const double b2r = r2 * w[0] - i2 * w[1];  // W^k · (samples 4m+1)
        const double b2i = r2 * w[1] + i2 * w[0];
        const double b3r = r3 * w[4] - i3 * w[5];  // W^3k · (samples 4m+3)
        const double b3i = r3 * w[5] + i3 * w[4];
        const double r0 = a0[2 * k];
        const double i0 = a0[2 * k + 1];
        const double t0r = r0 + b1r;
        const double t0i = i0 + b1i;
        const double t1r = r0 - b1r;
        const double t1i = i0 - b1i;
        const double t2r = b2r + b3r;
        const double t2i = b2i + b3i;
        const double t3r = b2r - b3r;
        const double t3i = b2i - b3i;
        a0[2 * k] = t0r + t2r;  // X[k]      = T0 + T2
        a0[2 * k + 1] = t0i + t2i;
        a1[2 * k] = t1r + t3i;  // X[k + q]  = T1 - i·T3
        a1[2 * k + 1] = t1i - t3r;
        a2[2 * k] = t0r - t2r;  // X[k + 2q] = T0 - T2
        a2[2 * k + 1] = t0i - t2i;
        a3[2 * k] = t1r - t3i;  // X[k + 3q] = T1 + i·T3
        a3[2 * k + 1] = t1i + t3r;
      }
    }
    tw += 6 * q;
  }
}

}  // namespace emts::dsp
