// Cost model for the distributed pipeline.
//
// Two uses:
//  * Full mode charges the simulated CPUs for the operations the kernels
//    actually performed (comparison counts, pixels transformed, ...) using
//    the per-operation flop formulas here.
//  * CostOnly mode reproduces the paper's problem sizes (320x320x105 and
//    beyond) without doing the arithmetic: the closed-form workload model
//    below predicts the operation counts from the dimensions, including the
//    unique-set growth law that drives the granularity trade-off of Fig. 5
//    (smaller tiles produce fewer in-tile comparisons but return more
//    duplicate vectors for the manager's sequential merge).
//
// The saturating unique-set law  K_tile(px) = K_sat (1 - exp(-px / px0))
// and the early-exit merge cost are calibration knobs: CostModelParams
// below, whose defaults every figure bench runs through
// bench/bench_util.h's paper_testbed().
#pragma once

#include <cmath>
#include <cstdint>

#include "hsi/image_cube.h"
#include "linalg/jacobi_eig.h"

namespace rif::core {

struct CostModelParams {
  /// Unique-set saturation per screened tile (vectors).
  double tile_unique_saturation = 1200.0;
  /// Tile pixel count at which the tile set reaches ~63% of saturation.
  double tile_unique_px0 = 300.0;
  /// Global unique-set size after the manager's merge (K in the paper).
  double global_unique_size = 2000.0;
  /// Average fraction of the final tile set a pixel is compared against.
  double screen_avg_set_fraction = 0.75;
  /// Early-exit comparisons per vector during the manager's merge.
  double merge_avg_comparisons = 25.0;
  /// Scale on the merge charge: 1.0 = sequential merge at the manager (the
  /// paper's LAN algorithm); 1/P models the shared-memory variant where
  /// workers insert into a shared unique set concurrently.
  double merge_cost_scale = 1.0;
  /// Jacobi sweeps assumed for the eigen-decomposition charge.
  int jacobi_sweeps = 8;
};

class CostModel {
 public:
  CostModel(const CostModelParams& params, int bands, int output_components)
      : p_(params), bands_(bands), components_(output_components) {}

  [[nodiscard]] const CostModelParams& params() const { return p_; }

  /// One spectral-angle evaluation against a set member.
  [[nodiscard]] double flops_per_comparison() const {
    return 2.0 * bands_ + 10.0;
  }

  /// Predicted unique-set size of a tile of `pixels` pixels.
  [[nodiscard]] double tile_unique_size(std::int64_t pixels) const {
    return p_.tile_unique_saturation *
           (1.0 - std::exp(-static_cast<double>(pixels) / p_.tile_unique_px0));
  }

  /// Screening a tile: each pixel is compared against the growing in-tile
  /// set; on average a fraction of the final set size.
  [[nodiscard]] double screen_flops(std::int64_t pixels) const {
    const double avg_set = p_.screen_avg_set_fraction * tile_unique_size(pixels);
    return static_cast<double>(pixels) * avg_set * flops_per_comparison();
  }

  /// Merging `returned` vectors into the manager's global set (step 2).
  [[nodiscard]] double merge_flops(double returned) const {
    return returned * p_.merge_avg_comparisons * flops_per_comparison() *
           p_.merge_cost_scale;
  }

  /// Mean vector over the global unique set (step 3).
  [[nodiscard]] double mean_flops() const {
    return p_.global_unique_size * bands_ * 2.0;
  }

  /// Covariance sum over a shard of `members` unique vectors (step 4).
  [[nodiscard]] double cov_flops(std::int64_t members) const {
    return static_cast<double>(members) * 0.5 * bands_ * (bands_ + 3.0);
  }

  /// Averaging `parts` covariance sums (step 5).
  [[nodiscard]] double cov_average_flops(int parts) const {
    return static_cast<double>(parts) * bands_ * bands_;
  }

  /// Eigen-decomposition (step 6).
  [[nodiscard]] double eigen_flops() const {
    return linalg::jacobi_flops(bands_, p_.jacobi_sweeps);
  }

  /// Transforming `pixels` original pixels (step 7).
  [[nodiscard]] double transform_flops(std::int64_t pixels) const {
    return static_cast<double>(pixels) * (components_ * 2.0 * bands_ + bands_);
  }

  /// Colour-mapping `pixels` pixels (step 8).
  [[nodiscard]] double colormap_flops(std::int64_t pixels) const {
    return static_cast<double>(pixels) * 30.0;
  }

  // --- Wire sizes (bytes) -------------------------------------------------
  [[nodiscard]] std::uint64_t tile_bytes(std::int64_t pixels) const {
    return static_cast<std::uint64_t>(pixels) * bands_ * sizeof(float);
  }
  [[nodiscard]] std::uint64_t unique_vectors_bytes(double vectors) const {
    return static_cast<std::uint64_t>(vectors * bands_ * sizeof(float));
  }
  [[nodiscard]] std::uint64_t cov_sum_bytes() const {
    // Packed upper triangle of doubles plus the count.
    return static_cast<std::uint64_t>(bands_) * (bands_ + 1) / 2 * 8 + 16;
  }
  [[nodiscard]] std::uint64_t transform_bytes() const {
    return static_cast<std::uint64_t>(components_) * bands_ * 8 +
           static_cast<std::uint64_t>(bands_) * 8 + 64;
  }
  [[nodiscard]] std::uint64_t color_tile_bytes(std::int64_t pixels) const {
    return static_cast<std::uint64_t>(pixels) * 3 + 32;
  }

 private:
  CostModelParams p_;
  int bands_;
  int components_;
};

}  // namespace rif::core
