// Principal Component Analysis. The paper's data-analysis module (Sec. III-D)
// uses PCA to "reduce the dimensionality of original data by replacing several
// correlated variables with a new set of independent variables" before
// computing Euclidean distances.
//
// The implementation picks between two exact paths:
//  * covariance path (d x d eigenproblem) when features <= samples,
//  * Gram path (n x n eigenproblem) when samples < features — the usual case
//    for a few hundred calibration traces of thousands of samples each.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/binio.hpp"

namespace emts::stats {

/// Fitted PCA projection. Immutable after fit().
class PcaModel {
 public:
  /// Fits on `data` (rows = observations, columns = features), keeping up to
  /// `components` principal directions (clamped to the available rank).
  /// Requires at least 2 rows and 1 column.
  static PcaModel fit(const linalg::Matrix& data, std::size_t components);

  /// Projects one observation into PCA space; requires size == input_dim().
  std::vector<double> project(const std::vector<double>& sample) const;

  /// project() into a caller-owned vector: bit-identical results, zero
  /// allocations once the vector's capacity is warm. `out` must not alias
  /// `sample`.
  void project_into(const std::vector<double>& sample, std::vector<double>& out) const;

  /// Projects every row of `data`; result is rows x components().
  linalg::Matrix project_all(const linalg::Matrix& data) const;

  /// Reconstructs an observation from its projection (inverse transform).
  std::vector<double> reconstruct(const std::vector<double>& projected) const;

  /// reconstruct() into a caller-owned vector: bit-identical results, zero
  /// allocations once the vector's capacity is warm. `out` must not alias
  /// `projected`.
  void reconstruct_into(const std::vector<double>& projected, std::vector<double>& out) const;

  std::size_t components() const { return eigenvalues_.size(); }
  std::size_t input_dim() const { return mean_.size(); }

  /// Per-component variance (descending).
  const std::vector<double>& explained_variance() const { return eigenvalues_; }

  /// Fraction of total variance captured by the kept components, in [0, 1].
  double explained_variance_ratio() const;

  const std::vector<double>& feature_mean() const { return mean_; }

  /// Principal directions: input_dim() x components(), one per column.
  const linalg::Matrix& basis() const { return basis_; }

  /// Serializes the fitted model (mean, basis, eigenvalues) so a calibrated
  /// detector can ship without its training traces. load() restores a model
  /// whose project()/reconstruct() outputs are bit-identical to the saved one.
  void save(util::ByteWriter& out) const;
  static PcaModel load(util::ByteReader& in);

 private:
  PcaModel() = default;

  std::vector<double> mean_;         // feature means (input_dim)
  linalg::Matrix basis_;             // input_dim x components, orthonormal cols
  std::vector<double> eigenvalues_;  // component variances, descending
  double total_variance_ = 0.0;
};

}  // namespace emts::stats
