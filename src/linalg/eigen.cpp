#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace emts::linalg {

namespace {

constexpr int kMaxSweeps = 64;        // hard iteration cap
constexpr double kTolerance = 1e-12;  // stop when max |off-diagonal| <= tol * ||A||_F

// One Jacobi rotation zeroing element (p, q) of `a`, accumulating into `v`.
// Both are square and row-major, so (r, c) sits at [r * n + c]; the loops
// index the storage directly instead of calling the bounds-checked accessor
// once per element.
void rotate(Matrix& a, Matrix& v, std::size_t p, std::size_t q) {
  const std::size_t n = a.rows();
  double* const w = a.row_data(0);
  double* const x = v.row_data(0);
  const double apq = w[p * n + q];
  if (apq == 0.0) return;
  const double app = w[p * n + p];
  const double aqq = w[q * n + q];
  const double theta = (aqq - app) / (2.0 * apq);
  // Stable tangent of the rotation angle.
  const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
  const double c = 1.0 / std::sqrt(t * t + 1.0);
  const double s = t * c;

  for (std::size_t k = 0; k < n; ++k) {
    const double akp = w[k * n + p];
    const double akq = w[k * n + q];
    w[k * n + p] = c * akp - s * akq;
    w[k * n + q] = s * akp + c * akq;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double apk = w[p * n + k];
    const double aqk = w[q * n + k];
    w[p * n + k] = c * apk - s * aqk;
    w[q * n + k] = s * apk + c * aqk;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double vkp = x[k * n + p];
    const double vkq = x[k * n + q];
    x[k * n + p] = c * vkp - s * vkq;
    x[k * n + q] = s * vkp + c * vkq;
  }
}

}  // namespace

EigenDecomposition symmetric_eigen(const Matrix& a) {
  EMTS_REQUIRE(a.rows() == a.cols(), "symmetric_eigen requires a square matrix");
  const double fro = a.frobenius_norm();
  EMTS_REQUIRE(a.is_symmetric(std::max(1e-9 * fro, 1e-12)),
               "symmetric_eigen requires a symmetric matrix");

  const std::size_t n = a.rows();
  Matrix work = a;
  Matrix vectors = Matrix::identity(n);

  // Symmetrize exactly so rotations stay consistent.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (work(r, c) + work(c, r));
      work(r, c) = avg;
      work(c, r) = avg;
    }

  const double stop = kTolerance * std::max(fro, 1e-300);
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (work.max_off_diagonal() <= stop) break;
    for (std::size_t p = 0; p + 1 < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q)
        if (std::abs(work(p, q)) > stop) rotate(work, vectors, p, q);
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return work(i, i) > work(j, j); });

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors = Matrix{n, n};
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = work(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) = vectors(i, order[j]);
  }
  return out;
}

}  // namespace emts::linalg
