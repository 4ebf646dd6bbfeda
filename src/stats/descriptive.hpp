// Descriptive statistics over sample vectors.
#pragma once

#include <cstddef>
#include <vector>

namespace emts::stats {

double mean(const std::vector<double>& v);

/// Unbiased sample variance (n-1 denominator); requires v.size() >= 2.
double variance(const std::vector<double>& v);

double stddev(const std::vector<double>& v);

/// Root mean square; the paper's SNR definition (Eq. 2) is an RMS ratio.
double rms(const std::vector<double>& v);

double min_value(const std::vector<double>& v);
double max_value(const std::vector<double>& v);

/// p-quantile via linear interpolation of the sorted order statistics,
/// p in [0, 1].
double quantile(std::vector<double> v, double p);

double median(std::vector<double> v);

/// In-place forms: select within the caller's buffer instead of copying it,
/// so a hot loop can reuse one scratch vector with zero allocations. The
/// buffer is left reordered, not sorted. Results are bit-identical to
/// quantile()/median() on the same values.
double quantile_in_place(std::vector<double>& v, double p);
double median_in_place(std::vector<double>& v);

/// Pearson correlation coefficient; requires equal sizes >= 2 and non-zero
/// variance in both inputs.
double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace emts::stats
