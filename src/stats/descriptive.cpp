#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace emts::stats {

double mean(const std::vector<double>& v) {
  EMTS_REQUIRE(!v.empty(), "mean of an empty vector");
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  EMTS_REQUIRE(v.size() >= 2, "variance requires at least two samples");
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size() - 1);
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double rms(const std::vector<double>& v) {
  EMTS_REQUIRE(!v.empty(), "rms of an empty vector");
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc / static_cast<double>(v.size()));
}

double min_value(const std::vector<double>& v) {
  EMTS_REQUIRE(!v.empty(), "min of an empty vector");
  return *std::min_element(v.begin(), v.end());
}

double max_value(const std::vector<double>& v) {
  EMTS_REQUIRE(!v.empty(), "max of an empty vector");
  return *std::max_element(v.begin(), v.end());
}

double quantile_in_place(std::vector<double>& v, double p) {
  EMTS_REQUIRE(!v.empty(), "quantile of an empty vector");
  EMTS_REQUIRE(p >= 0.0 && p <= 1.0, "quantile p must be in [0, 1]");
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The lo-th order statistic by selection, and the next one as the minimum
  // of what selection left above it: the values a full sort would put at lo
  // and hi, at O(n) instead of O(n log n).
  const auto lower = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), lower, v.end());
  const double upper = hi == lo ? *lower : *std::min_element(lower + 1, v.end());
  return *lower + frac * (upper - *lower);
}

double median_in_place(std::vector<double>& v) { return quantile_in_place(v, 0.5); }

double quantile(std::vector<double> v, double p) { return quantile_in_place(v, p); }

double median(std::vector<double> v) { return quantile_in_place(v, 0.5); }

double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b) {
  EMTS_REQUIRE(a.size() == b.size() && a.size() >= 2, "correlation: need equal sizes >= 2");
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  EMTS_REQUIRE(saa > 0.0 && sbb > 0.0, "correlation undefined for constant input");
  return sab / std::sqrt(saa * sbb);
}

}  // namespace emts::stats
