#include "core/pct.h"

#include <algorithm>
#include <cmath>

#include "linalg/jacobi_eig.h"
#include "linalg/kernels.h"
#include "linalg/stats.h"
#include "support/check.h"

namespace rif::core {

namespace {

/// One bias entry per transform row: bias[c] = row_c . mean. The single
/// definition keeps the projection arithmetic identical everywhere.
void bias_into(const linalg::Matrix& transform,
               const std::vector<double>& mean, double* bias) {
  for (int c = 0; c < transform.rows(); ++c) {
    const double* row = transform.row(c);
    double acc = 0.0;
    for (int b = 0; b < transform.cols(); ++b) acc += row[b] * mean[b];
    bias[c] = acc;
  }
}

}  // namespace

linalg::Matrix transform_matrix(const linalg::Matrix& eigenvectors,
                                int output_components) {
  RIF_CHECK(output_components >= 1 &&
            output_components <= eigenvectors.cols());
  linalg::Matrix t(output_components, eigenvectors.rows());
  for (int c = 0; c < output_components; ++c) {
    for (int b = 0; b < eigenvectors.rows(); ++b) {
      t(c, b) = eigenvectors(b, c);
    }
  }
  return t;
}

std::vector<double> projection_bias(const linalg::Matrix& transform,
                                    const std::vector<double>& mean) {
  RIF_CHECK(static_cast<int>(mean.size()) == transform.cols());
  std::vector<double> bias(static_cast<std::size_t>(transform.rows()));
  bias_into(transform, mean, bias.data());
  return bias;
}

void project_pixels(const linalg::Matrix& transform,
                    const std::vector<double>& bias, const float* pixels,
                    std::int64_t count, float* out) {
  const int bands = transform.cols();
  const int comps = transform.rows();
  RIF_DCHECK(static_cast<int>(bias.size()) == comps);
  for (std::int64_t p = 0; p < count; ++p) {
    linalg::kernels::project(transform.data(), comps, bands, bias.data(),
                             pixels + p * bands, out + p * comps);
  }
}

void transform_pixel(const linalg::Matrix& transform,
                     const std::vector<double>& mean,
                     std::span<const float> pixel, std::span<float> out) {
  const int bands = transform.cols();
  const int comps = transform.rows();
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands);
  RIF_DCHECK(static_cast<int>(mean.size()) == bands);
  RIF_DCHECK(static_cast<int>(out.size()) == comps);
  static thread_local std::vector<double> bias;
  bias.resize(static_cast<std::size_t>(comps));
  bias_into(transform, mean, bias.data());
  linalg::kernels::project(transform.data(), comps, bands, bias.data(),
                           pixel.data(), out.data());
}

std::array<ComponentScale, 3> scales_from_eigenvalues(
    const std::vector<double>& eigenvalues) {
  RIF_CHECK(eigenvalues.size() >= 3);
  std::array<ComponentScale, 3> scales{};
  for (int i = 0; i < 3; ++i) {
    const double stddev = std::sqrt(std::max(eigenvalues[i], 1e-24));
    scales[i] = make_scale(ComponentStats{0.0, stddev});
  }
  return scales;
}

void transform_and_map_range(const hsi::ImageCube& cube,
                             const linalg::Matrix& transform,
                             const std::vector<double>& mean,
                             const std::array<ComponentScale, 3>& scales,
                             std::vector<std::vector<float>>& planes,
                             hsi::RgbImage& composite, std::int64_t lo,
                             std::int64_t hi) {
  const int comps = transform.rows();
  const std::vector<double> bias = projection_bias(transform, mean);
  // The chunk kernel over cache-sized runs of pixels, whose pixel-major
  // components are then scattered to the planes while still hot.
  constexpr std::int64_t kBlock = 128;
  std::vector<float> comp(static_cast<std::size_t>(comps) * kBlock);
  for (std::int64_t p0 = lo; p0 < hi; p0 += kBlock) {
    const std::int64_t n = std::min(kBlock, hi - p0);
    transform_and_map_chunk(cube.pixel(p0).data(), n, transform, bias, scales,
                            comp.data(), composite, p0);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto p = static_cast<std::size_t>(p0 + k);
      for (int c = 0; c < comps; ++c) planes[c][p] = comp[k * comps + c];
    }
  }
}

void transform_and_map_chunk(const float* pixels, std::int64_t count,
                             const linalg::Matrix& transform,
                             const std::vector<double>& bias,
                             const std::array<ComponentScale, 3>& scales,
                             float* plane_chunk, hsi::RgbImage& composite,
                             std::int64_t out_offset) {
  const int comps = transform.rows();
  const int bands = transform.cols();
  constexpr std::int64_t kBlock = 128;
  std::vector<float> comp(static_cast<std::size_t>(comps) * kBlock);
  for (std::int64_t p0 = 0; p0 < count; p0 += kBlock) {
    const std::int64_t n = std::min(kBlock, count - p0);
    project_pixels(transform, bias, pixels + p0 * bands, n, comp.data());
    if (plane_chunk != nullptr) {
      std::copy_n(comp.data(), static_cast<std::size_t>(n) * comps,
                  plane_chunk + p0 * comps);
    }
    for (std::int64_t k = 0; k < n; ++k) {
      const float* px = comp.data() + k * comps;
      const auto p = static_cast<std::size_t>(out_offset + p0 + k);
      const auto rgb = map_pixel({px[0], px[1], px[2]}, scales);
      composite.data[p * 3 + 0] = rgb[0];
      composite.data[p * 3 + 1] = rgb[1];
      composite.data[p * 3 + 2] = rgb[2];
    }
  }
}

PctResult fuse(const hsi::ImageCube& cube, const PctConfig& config) {
  RIF_CHECK(config.output_components >= 3);
  RIF_CHECK(config.output_components <= cube.bands());
  PctResult result;

  // Steps 1-2: screening. Sequentially the whole cube is one "part".
  UniqueSet unique = screen_range(cube, 0, cube.pixel_count(),
                                  config.screening_threshold,
                                  &result.screen_comparisons);
  result.unique_set_size = unique.size();
  RIF_CHECK_MSG(unique.size() >= 3, "degenerate scene: unique set too small");

  // Step 3: mean vector of the unique set.
  linalg::MeanAccumulator mean_acc(cube.bands());
  for (std::size_t i = 0; i < unique.size(); ++i) mean_acc.add(unique.member(i));
  result.mean = mean_acc.mean();

  // Steps 4-5: covariance of the unique set, fed from the set's flat
  // storage in blocks so the rank-k triangle kernel does the work.
  linalg::CovarianceAccumulator cov_acc(cube.bands(), result.mean);
  cov_acc.add_rows(unique.flat().data(), unique.size());
  const linalg::Matrix cov = cov_acc.covariance();

  // Step 6: eigen-decomposition, sorted descending.
  linalg::EigenResult eig = linalg::jacobi_eigen(cov);
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;

  // Steps 7-8: transform every original pixel and colour-map it.
  const linalg::Matrix t =
      transform_matrix(eig.vectors, config.output_components);
  const auto n = static_cast<std::size_t>(cube.pixel_count());
  result.component_planes.assign(config.output_components,
                                 std::vector<float>(n));
  const auto scales = scales_from_eigenvalues(result.eigenvalues);
  result.composite = hsi::RgbImage(cube.width(), cube.height());
  transform_and_map_range(cube, t, result.mean, scales,
                          result.component_planes, result.composite, 0,
                          cube.pixel_count());
  return result;
}

}  // namespace rif::core
