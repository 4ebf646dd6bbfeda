// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
// Sizes here are small (covariance/Gram matrices of a few hundred), where
// Jacobi is simple, robust, and gives orthonormal eigenvectors to machine
// precision — exactly what the PCA stage needs.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace emts::linalg {

/// Result of a symmetric eigendecomposition, sorted by descending eigenvalue.
struct EigenDecomposition {
  std::vector<double> eigenvalues;  // descending
  Matrix eigenvectors;              // column j pairs with eigenvalues[j]
};

/// Eigendecomposition of a symmetric matrix. Requires a.is_symmetric() within
/// a loose tolerance (1e-9 relative); throws precondition_error otherwise.
EigenDecomposition symmetric_eigen(const Matrix& a);

}  // namespace emts::linalg
