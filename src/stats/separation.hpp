// Distribution-separation metrics. The paper's Fig. 6 argument is about
// whether golden and Trojan-active distance distributions are separable
// ("the peaks of distributions ... are separable" for the on-chip sensor but
// not the external probe); these metrics quantify that claim.
#pragma once

#include <vector>

namespace emts::stats {

/// Overlap coefficient of two empirical distributions, estimated on a shared
/// equal-width binning: sum over bins of min(p_a, p_b). 1 = identical,
/// 0 = disjoint.
double overlap_coefficient(const std::vector<double>& a, const std::vector<double>& b,
                           std::size_t bins = 64);

/// Peak (mode) separation: |mode_a - mode_b| estimated on a shared binning,
/// normalized by the pooled standard deviation. The paper's on-chip-sensor
/// claim translates to this being clearly nonzero while the probe's is ~0.
double mode_separation(const std::vector<double>& a, const std::vector<double>& b,
                       std::size_t bins = 64);

}  // namespace emts::stats
