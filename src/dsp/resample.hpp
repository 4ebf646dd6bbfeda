// Rate reduction. The preprocessing stage decimates long oscilloscope traces
// into PCA-sized feature vectors by block means.
#pragma once

#include <cstddef>
#include <vector>

namespace emts::dsp {

/// Averaging decimator: each output sample is the mean of `factor` inputs.
/// The trailing partial block (if any) is dropped.
std::vector<double> decimate_mean(const std::vector<double>& signal, std::size_t factor);

/// decimate_mean writing into a caller-owned vector: bit-identical results,
/// zero allocations once the vector's capacity is warm.
void decimate_mean_into(const std::vector<double>& signal, std::size_t factor,
                        std::vector<double>& out);

}  // namespace emts::dsp
