#include "core/pct.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "support/check.h"

namespace rif::core {

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
  // One bias entry per transform row: bias[c] = row_c . mean.
  std::vector<double> bias(static_cast<std::size_t>(transform.rows()));
  for (int c = 0; c < transform.rows(); ++c) {
    const double* row = transform.row(c);
    double acc = 0.0;
    for (int b = 0; b < transform.cols(); ++b) acc += row[b] * mean[b];
    bias[c] = acc;
  }
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

BarrierResult manager_barrier(
    std::span<const linalg::CovarianceAccumulator> shard_sums,
    int output_components) {
  RIF_CHECK(!shard_sums.empty());
  linalg::CovarianceAccumulator total = shard_sums.front();
  for (const auto& sum : shard_sums.subspan(1)) total.merge(sum);
  BarrierResult out;
  out.eigen = linalg::jacobi_eigen(total.covariance());
  Projection& p = out.projection;
  p.matrix = transform_matrix(out.eigen.vectors, output_components);
  p.mean = total.mean();
  p.bias = projection_bias(p.matrix, p.mean);
  p.scales = scales_from_eigenvalues(out.eigen.values);
  return out;
}

void transform_and_map_chunk(const float* pixels, std::int64_t count,
                             const Projection& projection, float* planes,
                             std::uint8_t* rgb) {
  const int comps = projection.matrix.rows();
  const int bands = projection.matrix.cols();
  constexpr std::int64_t kBlock = 128;
  // Components of one block, unless they go straight to `planes`.
  std::vector<float> block(planes == nullptr ? comps * kBlock : 0);
  for (std::int64_t p0 = 0; p0 < count; p0 += kBlock) {
    const std::int64_t n = std::min(kBlock, count - p0);
    float* comp = planes != nullptr ? planes + p0 * comps : block.data();
    project_pixels(projection.matrix, projection.bias, pixels + p0 * bands, n,
                   comp);
    for (std::int64_t k = 0; k < n; ++k) {
      const float* px = comp + k * comps;
      const auto mapped = map_pixel({px[0], px[1], px[2]}, projection.scales);
      std::copy(mapped.begin(), mapped.end(), rgb + (p0 + k) * 3);
    }
  }
}

void transform_and_map_range(const hsi::ImageCube& cube,
                             const linalg::Matrix& transform,
                             const std::vector<double>& mean,
                             const std::array<ComponentScale, 3>& scales,
                             std::vector<std::vector<float>>& planes,
                             hsi::RgbImage& composite, std::int64_t lo,
                             std::int64_t hi) {
  const Projection projection{transform, mean,
                              projection_bias(transform, mean), scales};
  const int comps = transform.rows();
  // The chunk kernel over cache-sized runs of pixels, whose pixel-major
  // components are then scattered to the planes while still hot.
  constexpr std::int64_t kBlock = 128;
  std::vector<float> comp(static_cast<std::size_t>(comps) * kBlock);
  for (std::int64_t p0 = lo; p0 < hi; p0 += kBlock) {
    const std::int64_t n = std::min(kBlock, hi - p0);
    transform_and_map_chunk(cube.pixel(p0).data(), n, projection, comp.data(),
                            composite.data.data() + p0 * 3);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto p = static_cast<std::size_t>(p0 + k);
      for (int c = 0; c < comps; ++c) planes[c][p] = comp[k * comps + c];
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
