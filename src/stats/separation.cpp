#include "stats/separation.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "util/assert.hpp"

namespace emts::stats {

namespace {

// Shared binning covering both samples with a small margin.
std::pair<double, double> shared_range(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  const double lo = std::min(min_value(a), min_value(b));
  const double hi = std::max(max_value(a), max_value(b));
  const double pad = (hi > lo) ? 1e-9 * (hi - lo) : 1.0;
  return {lo, hi + pad};
}

}  // namespace

double overlap_coefficient(const std::vector<double>& a, const std::vector<double>& b,
                           std::size_t bins) {
  EMTS_REQUIRE(!a.empty() && !b.empty(), "overlap requires non-empty samples");
  const auto [lo, hi] = shared_range(a, b);
  Histogram ha{lo, hi, bins};
  Histogram hb{lo, hi, bins};
  ha.add_all(a);
  hb.add_all(b);
  double acc = 0.0;
  for (std::size_t k = 0; k < bins; ++k) {
    const double pa = static_cast<double>(ha.count(k)) / static_cast<double>(ha.total());
    const double pb = static_cast<double>(hb.count(k)) / static_cast<double>(hb.total());
    acc += std::min(pa, pb);
  }
  return acc;
}

double mode_separation(const std::vector<double>& a, const std::vector<double>& b,
                       std::size_t bins) {
  EMTS_REQUIRE(a.size() >= 2 && b.size() >= 2, "mode_separation requires >= 2 samples each");
  const auto [lo, hi] = shared_range(a, b);
  Histogram ha{lo, hi, bins};
  Histogram hb{lo, hi, bins};
  ha.add_all(a);
  hb.add_all(b);
  const double pooled = std::sqrt(0.5 * (variance(a) + variance(b)));
  if (pooled <= 0.0) return 0.0;
  return std::abs(ha.mode() - hb.mode()) / pooled;
}

}  // namespace emts::stats
