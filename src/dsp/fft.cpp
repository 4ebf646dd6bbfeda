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

namespace {

void bit_reverse_permute(std::vector<cplx>& data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

void transform(std::vector<cplx>& data, bool inverse) {
  const std::size_t n = data.size();
  EMTS_REQUIRE(is_power_of_two(n), "FFT requires a power-of-two length");
  bit_reverse_permute(data);

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * units::pi / static_cast<double>(len);
    const cplx wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (cplx& x : data) x *= scale;
  }
}

}  // namespace

void fft_in_place(std::vector<cplx>& data) { transform(data, /*inverse=*/false); }

void ifft_in_place(std::vector<cplx>& data) { transform(data, /*inverse=*/true); }

std::vector<cplx> fft_real(const std::vector<double>& signal) {
  EMTS_REQUIRE(!signal.empty(), "fft_real requires a non-empty signal");
  std::vector<cplx> data(next_power_of_two(signal.size()), cplx{0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = cplx{signal[i], 0.0};
  fft_in_place(data);
  return data;
}

std::vector<double> ifft_real(std::vector<cplx> spectrum) {
  ifft_in_place(spectrum);
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = spectrum[i].real();
  return out;
}

FftPlan::FftPlan(std::size_t n) : n_{n} {
  EMTS_REQUIRE(is_power_of_two(n), "FftPlan requires a power-of-two length");

  // Same index walk as bit_reverse_permute, recorded instead of applied.
  reverse_.assign(n_, 0);
  std::size_t j = 0;
  for (std::size_t i = 1; i < n_; ++i) {
    std::size_t bit = n_ >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    reverse_[i] = j;
  }

  // Each stage's butterfly restarts w = 1 and steps w *= wlen; every group
  // inside a stage replays the identical sequence, so one table per stage
  // reproduces the one-shot transform's arithmetic exactly.
  twiddles_.reserve(n_ > 1 ? n_ - 1 : 0);
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const double angle = -2.0 * units::pi / static_cast<double>(len);
    const cplx wlen{std::cos(angle), std::sin(angle)};
    cplx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= wlen;
    }
  }
}

void FftPlan::forward(std::vector<cplx>& data) const {
  EMTS_REQUIRE(data.size() == n_, "FftPlan::forward: size mismatch with plan");
  for (std::size_t i = 1; i < n_; ++i) {
    if (i < reverse_[i]) std::swap(data[i], data[reverse_[i]]);
  }
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const cplx* w = twiddles_.data() + offset;
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + half] * w[k];
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    offset += half;
  }
}

}  // namespace emts::dsp
