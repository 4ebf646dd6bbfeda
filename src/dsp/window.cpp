#include "dsp/window.hpp"

#include <cmath>
#include <numeric>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace emts::dsp {

std::vector<double> make_window(WindowKind kind, std::size_t n) {
  EMTS_REQUIRE(n > 0, "make_window requires n > 0");
  std::vector<double> w(n, 1.0);
  const double denom = static_cast<double>(n);  // periodic window
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 2.0 * units::pi * static_cast<double>(i) / denom;
    switch (kind) {
      case WindowKind::kRectangular:
        w[i] = 1.0;
        break;
      case WindowKind::kHann:
        w[i] = 0.5 - 0.5 * std::cos(x);
        break;
      case WindowKind::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(x);
        break;
      case WindowKind::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(x) + 0.08 * std::cos(2.0 * x);
        break;
    }
  }
  return w;
}

double coherent_gain(const std::vector<double>& window) {
  return std::accumulate(window.begin(), window.end(), 0.0);
}

const char* window_label(WindowKind kind) {
  switch (kind) {
    case WindowKind::kRectangular:
      return "rectangular";
    case WindowKind::kHann:
      return "hann";
    case WindowKind::kHamming:
      return "hamming";
    case WindowKind::kBlackman:
      return "blackman";
  }
  return "?";
}

}  // namespace emts::dsp
