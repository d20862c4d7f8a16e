// Sequential spectral-screening PCT fusion pipeline (paper §3, steps 1-8).
//
// This is the reference implementation: the distributed manager/worker
// version and the shared-memory version compute exactly the same function
// (same screening order, same statistics, same transform, same mapping),
// which the integration tests assert byte-for-byte on the composite.
//
// Component scaling: the transformed unique set has zero mean and variance
// lambda_i along component i, so the colour-mapping scales are derived from
// the eigenvalues. This makes the scaling a pure function of the statistics
// the manager already owns — essential for the distributed version, where
// no single thread ever holds a full component plane.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/color_map.h"
#include "core/spectral_angle.h"
#include "hsi/image_cube.h"
#include "hsi/image_io.h"
#include "linalg/jacobi_eig.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"

namespace rif::core {

struct PctConfig {
  /// Spectral-angle threshold (radians) for unique-set membership.
  double screening_threshold = 0.05;
  /// Number of leading principal components to compute (>= 3 for colour).
  int output_components = 3;
};

struct PctResult {
  hsi::RgbImage composite;
  /// output_components planes, each width*height floats.
  std::vector<std::vector<float>> component_planes;
  std::vector<double> eigenvalues;  ///< all bands, descending
  linalg::Matrix eigenvectors;      ///< bands x bands, columns sorted
  std::vector<double> mean;         ///< unique-set mean vector (step 3)
  std::size_t unique_set_size = 0;  ///< K (step 2)
  std::uint64_t screen_comparisons = 0;
  /// Angle tests spent merging per-tile sets (0 when nothing was merged,
  /// e.g. the sequential pipeline's single part).
  std::uint64_t merge_comparisons = 0;
};

/// Run the full pipeline on a cube.
PctResult fuse(const hsi::ImageCube& cube, const PctConfig& config = {});

/// The truncated transform: rows = leading eigenvector transposes, so
/// component c of pixel x is  row_c . (x - mean).
linalg::Matrix transform_matrix(const linalg::Matrix& eigenvectors,
                                int output_components);

/// Per-component mean offsets for the bias-form projection
///   component c = row_c . x − (row_c . mean),
/// hoisted out of the per-pixel loop. Every engine (sequential, shared
/// memory, distributed workers) derives its bias through this one function
/// so the projection arithmetic — and thus the composite bytes — stay
/// identical across engines.
std::vector<double> projection_bias(const linalg::Matrix& transform,
                                    const std::vector<double>& mean);

/// Project `count` contiguous BIP pixels through the truncated transform
/// into `out` (row-major count x transform.rows()) with the blocked SIMD
/// kernel. The shared projection primitive behind transform_and_map_chunk
/// and the distributed workers' transform stage.
void project_pixels(const linalg::Matrix& transform,
                    const std::vector<double>& bias, const float* pixels,
                    std::int64_t count, float* out);

/// Colour-mapping scales from the leading eigenvalues (see header comment).
std::array<ComponentScale, 3> scales_from_eigenvalues(
    const std::vector<double>& eigenvalues);

/// The transform every colour pass applies (steps 7-8): component c of a
/// pixel x is  matrix row_c . x − bias[c], and the first three components
/// are colour-mapped through `scales`.
struct Projection {
  linalg::Matrix matrix;      ///< transform_matrix of the eigenvectors
  std::vector<double> mean;   ///< the unique-set mean (step 3)
  std::vector<double> bias;   ///< projection_bias(matrix, mean)
  std::array<ComponentScale, 3> scales{};
};

struct BarrierResult {
  linalg::EigenResult eigen;  ///< all bands, sorted descending
  Projection projection;
};

/// Steps 5-6 and the transform: the manager barrier of every engine but the
/// sequential reference (the fused engine's fuse_chunks and the distributed
/// FusionCoordinator). Merges the covariance shard sums strictly in shard
/// order, eigen-decomposes the averaged covariance and builds the truncated
/// projection about the sums' common mean. The fixed order fixes the
/// rounding, so equal shard sums give equal bits whoever computed them.
BarrierResult manager_barrier(
    std::span<const linalg::CovarianceAccumulator> shard_sums,
    int output_components);

/// Steps 7-8 over `count` contiguous BIP pixels held in a caller buffer:
/// the one colour-map loop, behind every engine. `pixels` is count x bands
/// floats; the colour-mapped bytes land at `rgb` (count x 3). When
/// `planes` is non-null it receives the raw components pixel-major
/// (count x components, the project_pixels layout) so callers can sink
/// component planes chunk by chunk instead of materializing them. Ranges
/// are disjoint, so parallel callers need no synchronisation.
void transform_and_map_chunk(const float* pixels, std::int64_t count,
                             const Projection& projection, float* planes,
                             std::uint8_t* rgb);

/// transform_and_map_chunk over the flat pixel range [lo, hi) of a
/// resident cube, scattering the components into `planes` (one plane per
/// transform row). The sequential pipeline's transform stage.
void transform_and_map_range(const hsi::ImageCube& cube,
                             const linalg::Matrix& transform,
                             const std::vector<double>& mean,
                             const std::array<ComponentScale, 3>& scales,
                             std::vector<std::vector<float>>& planes,
                             hsi::RgbImage& composite, std::int64_t lo,
                             std::int64_t hi);

}  // namespace rif::core
