// Top-k symmetric eigenpairs by power iteration with deflation.
//
// The colour pipeline only needs the three leading principal components
// (paper step 8), so the full O(n^3) eigen-solve of step 6 (tridiagonal
// QL, linalg::jacobi_eigen) is more than required. Power iteration
// computes the leading pairs in O(k n^2 iters) — an ablation of the
// paper's design choice, benchmarked in bench_ablation_eigen.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace rif::linalg {

struct PowerIterationOptions {
  int max_iterations = 500;
  /// Stop when the eigenvalue estimate moves by less than this relative
  /// amount between iterations.
  double tolerance = 1e-10;
  /// Deterministic start-vector seed.
  std::uint64_t seed = 12345;
};

struct PowerIterationResult {
  std::vector<double> values;  ///< k leading eigenvalues, descending
  Matrix vectors;              ///< n x k, column i for values[i]
  std::vector<int> iterations; ///< per-pair iteration counts
};

/// Leading `k` eigenpairs of symmetric positive semi-definite `a`.
PowerIterationResult power_eigen(const Matrix& a, int k,
                                 const PowerIterationOptions& opts = {});

/// Flop estimate for the cost model (k pairs, n x n matrix).
double power_eigen_flops(int n, int k, int avg_iterations = 40);

}  // namespace rif::linalg
