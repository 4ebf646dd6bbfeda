#include "stats/pca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::stats {

PcaModel PcaModel::fit(const linalg::Matrix& data, std::size_t components) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  EMTS_REQUIRE(n >= 2, "PCA requires at least two observations");
  EMTS_REQUIRE(d >= 1, "PCA requires at least one feature");
  EMTS_REQUIRE(components >= 1, "PCA requires at least one component");

  PcaModel model;
  model.mean_.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = data.row_data(i);
    for (std::size_t j = 0; j < d; ++j) model.mean_[j] += row[j];
  }
  for (double& m : model.mean_) m /= static_cast<double>(n);

  linalg::Matrix centered{n, d};
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = data.row_data(i);
    double* dst = centered.row_data(i);
    for (std::size_t j = 0; j < d; ++j) dst[j] = src[j] - model.mean_[j];
  }

  const double denom = static_cast<double>(n - 1);
  const std::size_t rank_cap = std::min(d, n - 1);
  const std::size_t keep = std::min(components, rank_cap);

  if (d <= n) {
    // Covariance path: C = X^T X / (n-1), eigenvectors are the basis directly.
    linalg::Matrix cov{d, d};
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = centered.row_data(i);
      for (std::size_t a = 0; a < d; ++a) {
        const double va = row[a];
        if (va == 0.0) continue;
        double* crow = cov.row_data(a);
        for (std::size_t b = 0; b < d; ++b) crow[b] += va * row[b];
      }
    }
    cov *= 1.0 / denom;

    const auto eig = linalg::symmetric_eigen(cov);
    model.total_variance_ = 0.0;
    for (double v : eig.eigenvalues) model.total_variance_ += std::max(v, 0.0);

    model.basis_ = linalg::Matrix{d, keep};
    model.eigenvalues_.resize(keep);
    for (std::size_t c = 0; c < keep; ++c) {
      model.eigenvalues_[c] = std::max(eig.eigenvalues[c], 0.0);
      for (std::size_t j = 0; j < d; ++j) model.basis_(j, c) = eig.eigenvectors(j, c);
    }
  } else {
    // Gram path: G = X X^T / (n-1); if G u = λ u then v = X^T u / sqrt(λ(n-1))
    // is a unit eigenvector of the covariance with the same eigenvalue.
    linalg::Matrix gram{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double* ri = centered.row_data(i);
        const double* rj = centered.row_data(j);
        double acc = 0.0;
        for (std::size_t k = 0; k < d; ++k) acc += ri[k] * rj[k];
        gram(i, j) = acc / denom;
        gram(j, i) = gram(i, j);
      }
    }

    const auto eig = linalg::symmetric_eigen(gram);
    model.total_variance_ = 0.0;
    for (double v : eig.eigenvalues) model.total_variance_ += std::max(v, 0.0);

    // Drop numerically null directions.
    std::size_t usable = 0;
    const double floor_eps = 1e-12 * std::max(model.total_variance_, 1e-300);
    while (usable < keep && eig.eigenvalues[usable] > floor_eps) ++usable;
    const std::size_t kept = std::max<std::size_t>(usable, 1);

    model.basis_ = linalg::Matrix{d, kept};
    model.eigenvalues_.resize(kept);
    for (std::size_t c = 0; c < kept; ++c) {
      const double lambda = std::max(eig.eigenvalues[c], floor_eps);
      model.eigenvalues_[c] = lambda;
      const double scale = 1.0 / std::sqrt(lambda * denom);
      for (std::size_t j = 0; j < d; ++j) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) acc += centered(i, j) * eig.eigenvectors(i, c);
        model.basis_(j, c) = acc * scale;
      }
    }
  }

  return model;
}

std::vector<double> PcaModel::project(const std::vector<double>& sample) const {
  std::vector<double> out;
  project_into(sample, out);
  return out;
}

void PcaModel::project_into(const std::vector<double>& sample, std::vector<double>& out) const {
  EMTS_REQUIRE(sample.size() == input_dim(), "PCA project: dimension mismatch");
  const std::size_t k = components();
  out.assign(k, 0.0);
  // Row by row through the row-major basis: each out[c] still sums its
  // terms in feature order, so the result equals the column-wise dot
  // products bit for bit.
  for (std::size_t j = 0; j < input_dim(); ++j) {
    const double centered = sample[j] - mean_[j];
    const double* row = basis_.row_data(j);
    for (std::size_t c = 0; c < k; ++c) out[c] += centered * row[c];
  }
}

std::vector<double> PcaModel::reconstruct(const std::vector<double>& projected) const {
  std::vector<double> out;
  reconstruct_into(projected, out);
  return out;
}

void PcaModel::reconstruct_into(const std::vector<double>& projected,
                                std::vector<double>& out) const {
  EMTS_REQUIRE(projected.size() == components(), "PCA reconstruct: dimension mismatch");
  const std::size_t k = components();
  out.resize(input_dim());
  for (std::size_t j = 0; j < input_dim(); ++j) {
    const double* row = basis_.row_data(j);
    double acc = 0.0;
    for (std::size_t c = 0; c < k; ++c) acc += row[c] * projected[c];
    out[j] = mean_[j] + acc;
  }
}

void PcaModel::save(util::ByteWriter& out) const {
  out.u64(input_dim());
  out.u64(components());
  out.f64(total_variance_);
  out.f64_vec(mean_);
  out.f64_vec(eigenvalues_);
  // Row-major, so each row is its components' doubles in order.
  EMTS_ASSERT(basis_.rows() == input_dim() && basis_.cols() == components());
  for (std::size_t j = 0; j < input_dim(); ++j) {
    out.bytes(std::as_bytes(std::span{basis_.row_data(j), components()}));
  }
}

PcaModel PcaModel::load(util::ByteReader& in) {
  const std::uint64_t d = in.u64();
  const std::uint64_t k = in.u64();
  EMTS_REQUIRE(d >= 1 && k >= 1, "PCA load: empty model");
  EMTS_REQUIRE(d < (1ull << 32) && k <= d, "PCA load: implausible dimensions");

  PcaModel model;
  model.total_variance_ = in.f64();
  model.mean_ = in.f64_vec();
  model.eigenvalues_ = in.f64_vec();
  EMTS_REQUIRE(model.mean_.size() == d, "PCA load: mean size mismatch");
  EMTS_REQUIRE(model.eigenvalues_.size() == k, "PCA load: eigenvalue count mismatch");
  // d matches a vector f64_vec accepted (< 2^26) and k <= d, so the basis
  // byte count cannot wrap.
  EMTS_REQUIRE(d * k * sizeof(double) <= in.remaining(),
               "PCA load: basis exceeds remaining bytes");
  model.basis_ = linalg::Matrix{d, k};
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t c = 0; c < k; ++c) model.basis_(j, c) = in.f64();
  }
  return model;
}

double PcaModel::explained_variance_ratio() const {
  if (total_variance_ <= 0.0) return 0.0;
  double kept = 0.0;
  for (double v : eigenvalues_) kept += v;
  return std::min(kept / total_variance_, 1.0);
}

}  // namespace emts::stats
