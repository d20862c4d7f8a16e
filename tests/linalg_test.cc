#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/spectral_angle.h"
#include "hsi/scene.h"
#include "linalg/jacobi_eig.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "support/rng.h"

namespace rif::linalg {
namespace {

Matrix random_spd(int n, std::uint64_t seed) {
  // A^T A + n I is symmetric positive definite.
  Rng rng(seed);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = a.transposed() * a;
  for (int i = 0; i < n; ++i) spd(i, i) += n;
  return spd;
}

// Cyclic Jacobi, the step-6 solver before tridiagonal QL, kept as the
// independent oracle for the scene-level agreement test.
EigenResult jacobi_oracle(const Matrix& input) {
  const int n = input.rows();
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = 0.5 * (input(i, j) + input(j, i));
  }
  Matrix v = Matrix::identity(n);
  const double stop = 1e-12 * std::max(a.frobenius_norm(), 1e-300);
  int sweep = 0;
  for (; sweep < 100; ++sweep) {
    if (a.max_off_diagonal() <= stop) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= stop * 1e-3) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&a](int i, int j) { return a(i, i) > a(j, j); });
  EigenResult result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  result.sweeps = sweep;
  for (int out = 0; out < n; ++out) {
    const int src = order[out];
    result.values[out] = a(src, src);
    double maxmag = 0.0;
    double sign = 1.0;
    for (int k = 0; k < n; ++k) {
      if (std::abs(v(k, src)) > maxmag) {
        maxmag = std::abs(v(k, src));
        sign = v(k, src) >= 0.0 ? 1.0 : -1.0;
      }
    }
    for (int k = 0; k < n; ++k) result.vectors(k, out) = sign * v(k, src);
  }
  return result;
}

double column_dot(const Matrix& a, int ca, const Matrix& b, int cb) {
  double dot = 0.0;
  for (int k = 0; k < a.rows(); ++k) dot += a(k, ca) * b(k, cb);
  return dot;
}

/// Covariance of the spectral unique set of a generated scene, built as the
/// sequential pipeline builds it (paper steps 1-5).
Matrix scene_covariance(std::uint64_t seed, std::size_t* members) {
  hsi::SceneConfig sc;
  sc.width = 320;
  sc.height = 320;
  sc.bands = 105;
  sc.seed = seed;
  const hsi::Scene scene = hsi::generate_scene(sc);
  const core::UniqueSet unique = core::screen_range(
      scene.cube, 0, scene.cube.pixel_count(), 0.05);
  *members = unique.size();
  MeanAccumulator mean_acc(sc.bands);
  for (std::size_t i = 0; i < unique.size(); ++i) mean_acc.add(unique.member(i));
  CovarianceAccumulator cov(sc.bands, mean_acc.mean());
  cov.add_rows(unique.flat().data(), unique.size());
  return cov.covariance();
}

// --- Matrix ------------------------------------------------------------------

TEST(MatrixTest, IdentityProduct) {
  const Matrix a({{1, 2}, {3, 4}});
  const Matrix i = Matrix::identity(2);
  EXPECT_LT(relative_difference(a * i, a), 1e-15);
  EXPECT_LT(relative_difference(i * a, a), 1e-15);
}

TEST(MatrixTest, ProductMatchesHand) {
  const Matrix a({{1, 2}, {3, 4}});
  const Matrix b({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix a({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_LT(relative_difference(t.transposed(), a), 1e-15);
}

TEST(MatrixTest, ApplyMatchesProduct) {
  const Matrix a({{1, 2}, {3, 4}, {5, 6}});
  const auto y = a.apply({1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(MatrixTest, SymmetricDetection) {
  EXPECT_TRUE(Matrix({{1, 2}, {2, 1}}).symmetric());
  EXPECT_FALSE(Matrix({{1, 2}, {3, 1}}).symmetric());
  EXPECT_FALSE(Matrix(2, 3).symmetric());
}

TEST(MatrixTest, NormsAndOffDiagonal) {
  const Matrix a({{3, 0}, {4, 0}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(a.max_off_diagonal(), 4.0);
}

TEST(MatrixTest, DimensionMismatchAborts) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_DEATH((void)(a * b), "mismatch");
}

// --- Jacobi ------------------------------------------------------------------

TEST(JacobiTest, DiagonalMatrixTrivial) {
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const EigenResult r = jacobi_eigen(d);
  EXPECT_NEAR(r.values[0], 5.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
  EXPECT_NEAR(r.values[2], 1.0, 1e-12);
}

TEST(JacobiTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const EigenResult r = jacobi_eigen(Matrix({{2, 1}, {1, 2}}));
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2).
  EXPECT_NEAR(std::abs(r.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(r.vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

class JacobiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JacobiPropertyTest, ReconstructsInput) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 100 + n);
  const EigenResult r = jacobi_eigen(a);
  // A == V diag(L) V^T
  Matrix recon(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += r.vectors(i, k) * r.values[k] * r.vectors(j, k);
      }
      recon(i, j) = acc;
    }
  }
  EXPECT_LT(relative_difference(recon, a), 1e-9);
}

TEST_P(JacobiPropertyTest, VectorsOrthonormal) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 200 + n);
  const EigenResult r = jacobi_eigen(a);
  const Matrix vtv = r.vectors.transposed() * r.vectors;
  EXPECT_LT(relative_difference(vtv, Matrix::identity(n)), 1e-10);
}

TEST_P(JacobiPropertyTest, ValuesSortedDescending) {
  const int n = GetParam();
  const EigenResult r = jacobi_eigen(random_spd(n, 300 + n));
  for (int i = 1; i < n; ++i) EXPECT_GE(r.values[i - 1], r.values[i]);
}

TEST_P(JacobiPropertyTest, EigenEquationHolds) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 400 + n);
  const EigenResult r = jacobi_eigen(a);
  for (int k = 0; k < n; ++k) {
    std::vector<double> v(n);
    for (int i = 0; i < n; ++i) v[i] = r.vectors(i, k);
    const auto av = a.apply(v);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], r.values[k] * v[i], 1e-8 * a.frobenius_norm());
    }
  }
}

TEST_P(JacobiPropertyTest, TraceEqualsSumOfValues) {
  const int n = GetParam();
  const Matrix a = random_spd(n, 500 + n);
  const EigenResult r = jacobi_eigen(a);
  double trace = 0.0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += r.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9 * std::abs(trace));
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 16, 32, 64, 105, 210));

TEST(JacobiTest, OneByOne) {
  const EigenResult r = jacobi_eigen(Matrix({{-4.0}}));
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], -4.0);
  EXPECT_EQ(r.vectors(0, 0), 1.0);
}

TEST(JacobiTest, ZeroMatrix) {
  const int n = 6;
  const EigenResult r = jacobi_eigen(Matrix(n, n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(r.values[i], 0.0);
  const Matrix vtv = r.vectors.transposed() * r.vectors;
  EXPECT_LT(relative_difference(vtv, Matrix::identity(n)), 1e-15);
}

TEST(JacobiTest, DiagonalWithTiedValues) {
  const std::vector<double> diag = {2.0, 5.0, 2.0, 5.0, 1.0};
  const int n = static_cast<int>(diag.size());
  Matrix d(n, n);
  for (int i = 0; i < n; ++i) d(i, i) = diag[i];
  const EigenResult r = jacobi_eigen(d);
  EXPECT_EQ(r.values, (std::vector<double>{5.0, 5.0, 2.0, 2.0, 1.0}));
  // Each vector is a signed-positive unit axis whose diagonal entry is its
  // eigenvalue; together they cover every axis once.
  std::vector<int> axes;
  for (int c = 0; c < n; ++c) {
    int axis = -1;
    for (int k = 0; k < n; ++k) {
      if (r.vectors(k, c) != 0.0) {
        EXPECT_EQ(axis, -1) << "column " << c << " is not an axis";
        axis = k;
      }
    }
    ASSERT_GE(axis, 0);
    EXPECT_EQ(r.vectors(axis, c), 1.0);
    EXPECT_EQ(diag[axis], r.values[c]);
    axes.push_back(axis);
  }
  std::sort(axes.begin(), axes.end());
  EXPECT_EQ(axes, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(JacobiTest, ThreeMemberCovarianceIn105Bands) {
  // The smallest unique set that is not degenerate has three members; its
  // centred covariance has rank 2 and 103 zero eigenvalues.
  const int n = 105;
  Rng rng(77);
  std::vector<float> members(3 * n);
  for (auto& x : members) x = static_cast<float>(rng.uniform(0.0, 1.0));
  MeanAccumulator mean_acc(n);
  for (int m = 0; m < 3; ++m) {
    mean_acc.add(std::span<const float>(members.data() + m * n, n));
  }
  CovarianceAccumulator acc(n, mean_acc.mean());
  acc.add_rows(members.data(), 3);
  const Matrix cov = acc.covariance();

  const EigenResult r = jacobi_eigen(cov);
  const EigenResult oracle = jacobi_oracle(cov);
  ASSERT_GT(r.values[1], 0.0);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.values[i], oracle.values[i], 1e-10 * oracle.values[0]);
    if (i >= 2) {
      EXPECT_LT(std::abs(r.values[i]), 1e-12 * r.values[0]);
    }
  }
  for (int c = 0; c < 2; ++c) {
    EXPECT_GT(column_dot(r.vectors, c, oracle.vectors, c), 1.0 - 1e-10);
  }
  const Matrix vtv = r.vectors.transposed() * r.vectors;
  EXPECT_LT(relative_difference(vtv, Matrix::identity(n)), 1e-12);
}

TEST(JacobiTest, RepeatedCallsGiveIdenticalBits) {
  const Matrix a = random_spd(105, 901);
  const EigenResult first = jacobi_eigen(a);
  const EigenResult second = jacobi_eigen(a);
  EXPECT_GT(first.sweeps, 0);
  EXPECT_EQ(first.sweeps, second.sweeps);
  EXPECT_EQ(std::memcmp(first.values.data(), second.values.data(),
                        first.values.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(first.vectors.data(), second.vectors.data(),
                        105 * 105 * sizeof(double)),
            0);
}

TEST(JacobiTest, NonFiniteInputReturns) {
  // A degenerate scene can hand the solver NaN or Inf; the capped QL loop
  // must still end.
  const int n = 32;
  const JacobiOptions opts;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Matrix a = random_spd(n, 950);
    a(3, 7) = bad;
    a(7, 3) = bad;
    const EigenResult r = jacobi_eigen(a);
    EXPECT_EQ(r.values.size(), static_cast<std::size_t>(n));
    EXPECT_LE(r.sweeps, n * opts.max_iterations);
  }
}

class JacobiSceneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JacobiSceneTest, AgreesWithJacobiOracle) {
  std::size_t members = 0;
  const Matrix cov = scene_covariance(GetParam(), &members);
  ASSERT_GE(members, 3u);
  const EigenResult r = jacobi_eigen(cov);
  const EigenResult oracle = jacobi_oracle(cov);
  const int n = cov.rows();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.values[i], oracle.values[i], 1e-10 * oracle.values[0])
        << "eigenvalue " << i;
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(column_dot(r.vectors, c, oracle.vectors, c), 1.0 - 1e-10)
        << "eigenvector " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(BenchSeeds, JacobiSceneTest,
                         ::testing::Values(1u, 1234u));

TEST(JacobiTest, SlightAsymmetryTolerated) {
  Matrix a({{2, 1.0000001}, {0.9999999, 2}});
  const EigenResult r = jacobi_eigen(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-6);
}

TEST(JacobiTest, NonSquareAborts) {
  EXPECT_DEATH((void)jacobi_eigen(Matrix(2, 3)), "square");
}

TEST(JacobiTest, FlopsEstimatePositiveAndCubic) {
  EXPECT_GT(jacobi_flops(10), 0.0);
  // Roughly cubic growth.
  EXPECT_GT(jacobi_flops(100), 500.0 * jacobi_flops(10));
}

// --- Accumulators -------------------------------------------------------------

TEST(MeanAccumulatorTest, SimpleMean) {
  MeanAccumulator acc(2);
  acc.add(std::vector<float>{1.0f, 2.0f});
  acc.add(std::vector<float>{3.0f, 6.0f});
  const auto m = acc.mean();
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
}

TEST(MeanAccumulatorTest, MergeEqualsSequential) {
  Rng rng(7);
  std::vector<std::vector<float>> pixels;
  for (int i = 0; i < 100; ++i) {
    pixels.push_back({static_cast<float>(rng.uniform()),
                      static_cast<float>(rng.uniform()),
                      static_cast<float>(rng.uniform())});
  }
  MeanAccumulator whole(3);
  for (const auto& p : pixels) whole.add(p);
  MeanAccumulator a(3), b(3);
  for (int i = 0; i < 40; ++i) a.add(pixels[i]);
  for (int i = 40; i < 100; ++i) b.add(pixels[i]);
  a.merge(b);
  const auto m1 = whole.mean();
  const auto m2 = a.mean();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(m1[i], m2[i], 1e-12);
}

TEST(MeanAccumulatorTest, EncodeDecodeRoundTrip) {
  MeanAccumulator acc(2);
  acc.add(std::vector<float>{1.5f, -2.0f});
  const auto decoded = MeanAccumulator::decode(acc.encode());
  EXPECT_EQ(decoded.count(), 1u);
  EXPECT_DOUBLE_EQ(decoded.mean()[0], 1.5);
}

TEST(MeanAccumulatorTest, EmptyMeanAborts) {
  MeanAccumulator acc(2);
  EXPECT_DEATH((void)acc.mean(), "empty");
}

TEST(CovarianceTest, IdentityForUnitAxes) {
  // Pixels at +/- e_i around zero mean: covariance is diagonal.
  std::vector<double> mean{0.0, 0.0};
  CovarianceAccumulator acc(2, mean);
  acc.add(std::vector<float>{1.0f, 0.0f});
  acc.add(std::vector<float>{-1.0f, 0.0f});
  acc.add(std::vector<float>{0.0f, 2.0f});
  acc.add(std::vector<float>{0.0f, -2.0f});
  const Matrix cov = acc.covariance();
  EXPECT_DOUBLE_EQ(cov(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(cov(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 0.0);
}

TEST(CovarianceTest, MergeEqualsSequential) {
  Rng rng(13);
  const int dims = 5;
  std::vector<double> mean(dims, 0.5);
  CovarianceAccumulator whole(dims, mean);
  CovarianceAccumulator p1(dims, mean), p2(dims, mean), p3(dims, mean);
  for (int i = 0; i < 300; ++i) {
    std::vector<float> px(dims);
    for (auto& v : px) v = static_cast<float>(rng.uniform());
    whole.add(px);
    (i % 3 == 0 ? p1 : i % 3 == 1 ? p2 : p3).add(px);
  }
  p1.merge(p2);
  p1.merge(p3);
  EXPECT_LT(relative_difference(whole.covariance(), p1.covariance()), 1e-12);
}

TEST(CovarianceTest, EncodeDecodeRoundTrip) {
  std::vector<double> mean{1.0, 2.0};
  CovarianceAccumulator acc(2, mean);
  acc.add(std::vector<float>{2.0f, 1.0f});
  acc.add(std::vector<float>{0.0f, 3.0f});
  const auto decoded = CovarianceAccumulator::decode(acc.encode());
  EXPECT_EQ(decoded.count(), 2u);
  EXPECT_LT(relative_difference(decoded.covariance(), acc.covariance()),
            1e-15);
}

TEST(CovarianceTest, MismatchedMeansAbortOnMerge) {
  CovarianceAccumulator a(2, {0.0, 0.0});
  CovarianceAccumulator b(2, {1.0, 0.0});
  EXPECT_DEATH(a.merge(b), "different means");
}

TEST(CovarianceTest, SymmetricOutput) {
  Rng rng(17);
  std::vector<double> mean(4, 0.0);
  CovarianceAccumulator acc(4, mean);
  for (int i = 0; i < 50; ++i) {
    std::vector<float> px(4);
    for (auto& v : px) v = static_cast<float>(rng.normal());
    acc.add(px);
  }
  EXPECT_TRUE(acc.covariance().symmetric(1e-12));
}

// --- MomentAccumulator -------------------------------------------------------

std::vector<std::vector<float>> random_pixels(int n, int dims,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> pixels(n);
  for (auto& px : pixels) {
    px.resize(dims);
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 0.9));
  }
  return pixels;
}

/// The two-pass reference: exact mean first, then centered covariance.
Matrix two_pass_covariance(const std::vector<std::vector<float>>& pixels,
                           std::vector<double>* mean_out) {
  const int dims = static_cast<int>(pixels.front().size());
  MeanAccumulator mean_acc(dims);
  for (const auto& px : pixels) mean_acc.add(px);
  *mean_out = mean_acc.mean();
  CovarianceAccumulator cov(dims, *mean_out);
  for (const auto& px : pixels) cov.add(px);
  return cov.covariance();
}

TEST(MomentAccumulatorTest, MatchesTwoPassReference) {
  const auto pixels = random_pixels(200, 7, 23);
  std::vector<double> ref_mean;
  const Matrix ref_cov = two_pass_covariance(pixels, &ref_mean);

  // Origin = the first pixel.
  std::vector<double> origin(pixels[0].begin(), pixels[0].end());
  MomentAccumulator mom(7, origin);
  for (const auto& px : pixels) mom.add(px);
  const auto mean = mom.mean();
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(mean[i], ref_mean[i], 1e-12);
  EXPECT_LT(relative_difference(mom.covariance(), ref_cov), 1e-10);
}

TEST(MomentAccumulatorTest, BlockedAddMatchesScalarAdd) {
  const int dims = 11;
  const auto pixels = random_pixels(100, dims, 5);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());

  std::vector<double> origin(dims, 0.3);
  MomentAccumulator scalar(dims, origin);
  for (const auto& px : pixels) scalar.add(px);
  MomentAccumulator blocked(dims, origin);
  blocked.add_block(flat.data(), 60);  // two uneven blocks
  blocked.add_block(flat.data() + 60 * dims, 40);

  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-13);
}

TEST(MomentAccumulatorTest, SubBlockTailsMatchScalarAdd) {
  // 1..5-row blocks (the SIMD rank-k kernel's tail shapes) at an odd dims.
  const int dims = 9;
  const auto pixels = random_pixels(15, dims, 51);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());
  std::vector<double> origin(dims, 0.2);

  MomentAccumulator scalar(dims, origin);
  for (const auto& px : pixels) scalar.add(px);
  MomentAccumulator blocked(dims, origin);
  std::size_t off = 0;
  for (int rows = 1; rows <= 5; ++rows) {  // 1+2+3+4+5 = 15 pixels
    blocked.add_block(flat.data() + off * dims, rows);
    off += static_cast<std::size_t>(rows);
  }
  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-12);
}

TEST(CovarianceAccumulatorTest, BlockedAddMatchesScalarAdd) {
  const int dims = 13;
  const auto pixels = random_pixels(70, dims, 61);
  std::vector<float> flat;
  for (const auto& px : pixels) flat.insert(flat.end(), px.begin(), px.end());
  std::vector<double> mean(dims, 0.45);

  CovarianceAccumulator scalar(dims, mean);
  for (const auto& px : pixels) scalar.add(px);
  CovarianceAccumulator blocked(dims, mean);
  blocked.add_block(flat.data(), 33);  // uneven blocks with ragged tails
  blocked.add_block(flat.data() + 33 * dims, 32);
  blocked.add_block(flat.data() + 65 * dims, 5);

  EXPECT_EQ(blocked.count(), scalar.count());
  EXPECT_LT(relative_difference(blocked.covariance(), scalar.covariance()),
            1e-12);
}

TEST(MomentAccumulatorTest, EmptyStatisticsAbort) {
  MomentAccumulator acc(2, {0.0, 0.0});
  EXPECT_DEATH((void)acc.mean(), "empty");
  EXPECT_DEATH((void)acc.covariance(), "empty");
}

}  // namespace
}  // namespace rif::linalg
