#include "linalg/jacobi_eig.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace rif::linalg {

namespace {

// Householder reduction of the symmetric matrix held in `w` to tridiagonal
// form (EISPACK tred2). On return d holds the diagonal, e[i] the element
// coupling i-1 and i (e[0] = 0), and w the TRANSPOSE of the orthogonal Q
// with A = Q T Q^T. Working on the transpose turns every inner loop of the
// reduction, the accumulation and the QL rotations into a walk along one
// contiguous row.
void tridiagonalize(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
  const int n = w.rows();
  for (int j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Householder vector of row i, scaled against under/overflow.
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;

      // Similarity transform of the leading i x i block.
      for (int j = 0; j < i; ++j) {
        double* wj = &w(j, 0);
        f = d[j];
        w(i, j) = f;
        g = e[j] + wj[j] * f;
        for (int k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        double* wj = &w(j, 0);
        f = d[j];
        g = e[j];
        for (int k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflections into Q (stored transposed).
  for (int i = 0; i < n - 1; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    const double* wi1 = &w(i + 1, 0);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = wi1[k] / h;
      for (int j = 0; j <= i; ++j) {
        double* wj = &w(j, 0);
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += wi1[k] * wj[k];
        for (int k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    double* zero = &w(i + 1, 0);
    for (int k = 0; k <= i; ++k) zero[k] = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize (EISPACK
// tql2), rotating the rows of the transposed transform `w`. At most
// `max_iterations` QL steps are spent on each eigenvalue, so the loop ends
// on any input, NaN and Inf included. Returns the total number of steps.
int ql_implicit(Matrix& w, std::vector<double>& d, std::vector<double>& e,
                int max_iterations) {
  const int n = w.rows();
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  double shift = 0.0;
  double tst1 = 0.0;
  int total = 0;
  for (int l = 0; l < n; ++l) {
    // Find the first negligible subdiagonal element at or below l; e[n-1]
    // is zero, but a NaN tst1 makes every test fail, hence the bound.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    int m = l;
    while (m < n - 1 && !(std::abs(e[m]) <= eps * tst1)) ++m;

    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        // Wilkinson-style shift from the leading 2 x 2 block.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        shift += h;

        // Chase the bulge from m back up to l with Givens rotations.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* wi = &w(i, 0);
          double* wi1 = &w(i + 1, 0);
          for (int k = 0; k < n; ++k) {
            const double t = wi1[k];
            wi1[k] = s * wi[k] + c * t;
            wi[k] = c * wi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1 && iter < max_iterations);
      total += iter;
    }
    d[l] += shift;
    e[l] = 0.0;
  }
  return total;
}

}  // namespace

EigenResult jacobi_eigen(const Matrix& input, const JacobiOptions& opts) {
  RIF_CHECK_MSG(input.rows() == input.cols(), "jacobi needs a square matrix");
  const int n = input.rows();
  EigenResult result;
  if (n == 0) return result;

  // Symmetrize defensively: covariance matrices assembled from distributed
  // partial sums can carry rounding asymmetry.
  Matrix w(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) w(i, j) = 0.5 * (input(i, j) + input(j, i));
  }

  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(w, d, e);
  result.sweeps = ql_implicit(w, d, e, opts.max_iterations);

  // Sort eigenpairs by descending eigenvalue so that "high spectral content
  // is forced into the front components" (paper, step 6). A NaN sorts as
  // -inf so the comparator stays a strict weak order.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto key = [&d](int i) { return std::isnan(d[i]) ? -kInf : d[i]; };
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&key](int i, int j) { return key(i) > key(j); });

  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (int out = 0; out < n; ++out) {
    const int src = order[out];
    const double* v = w.row(src);  // row src of w is eigenvector src
    result.values[out] = d[src];
    // Fix the sign convention: largest-magnitude element positive, so that
    // results are deterministic across run orders.
    double maxmag = 0.0;
    double sign = 1.0;
    for (int k = 0; k < n; ++k) {
      if (std::abs(v[k]) > maxmag) {
        maxmag = std::abs(v[k]);
        sign = v[k] >= 0.0 ? 1.0 : -1.0;
      }
    }
    for (int k = 0; k < n; ++k) result.vectors(k, out) = sign * v[k];
  }
  return result;
}

double jacobi_flops(int n, int sweeps) {
  // Each sweep rotates n(n-1)/2 pairs; each rotation touches 6n elements
  // with a multiply-add each (~12n flops) plus constant work.
  const double pairs = 0.5 * n * (n - 1);
  return static_cast<double>(sweeps) * pairs * (12.0 * n + 30.0);
}

}  // namespace rif::linalg
