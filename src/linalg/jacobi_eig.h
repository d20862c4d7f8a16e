// Symmetric eigen-decomposition for step 6 of the paper's algorithm: "the
// eigenvectors of the covariance matrix are calculated and sorted according
// to their corresponding eigenvalues".
//
// The name follows the paper's step-6 cost model, which charges a cyclic
// Jacobi solve (jacobi_flops). The solver itself is Householder
// tridiagonalisation followed by implicit-shift QL (EISPACK tred2/tql2;
// Golub & Van Loan 8.3): same O(n^3) order in the band count, several times
// fewer operations than Jacobi sweeps, and a fixed operation order, so one
// covariance always yields the same bits.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace rif::linalg {

struct EigenResult {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
  /// Total implicit QL steps over all eigenvalues.
  int sweeps = 0;
};

struct JacobiOptions {
  /// QL steps allowed per eigenvalue; one that has not converged by then
  /// is taken as it stands, so the solve ends on NaN/Inf input too.
  int max_iterations = 30;
};

/// Decompose a symmetric matrix. RIF_CHECKs on non-square input; symmetry
/// is enforced by averaging a_ij and a_ji first. Each eigenvector is signed
/// so its largest-magnitude element (the first, on a tie) is positive.
EigenResult jacobi_eigen(const Matrix& a, const JacobiOptions& opts = {});

/// Flop estimate for the decomposition of an n x n matrix, used by the
/// distributed cost model for the sequential step-6 term.
double jacobi_flops(int n, int sweeps = 8);

}  // namespace rif::linalg
