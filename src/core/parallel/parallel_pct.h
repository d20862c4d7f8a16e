// Shared-memory variant of the spectral-screening PCT pipeline.
//
// This is the real multithreaded implementation (the paper's §4 remark:
// "On a shared memory system, the concurrent algorithm presented here
// operates within 5% of linear speedup"). It computes exactly the same
// function as the distributed Full-mode run with the same tile count:
// per-tile screening, in-order merge, sharded covariance, sequential eigen
// step, parallel transform + colour mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "linalg/stats.h"

namespace rif::core {

struct ParallelPctConfig {
  PctConfig pct;
  int threads = 4;
  /// Screening tiles; defaults to `threads` when 0. Using the same value as
  /// a distributed run's total tile count makes the outputs identical.
  int tiles = 0;
  /// Covariance shard count; defaults to `threads` when 0. Summation
  /// grouping affects floating-point rounding, so fix this (e.g. to the
  /// distributed worker count) when bit-exact comparison matters.
  int cov_shards = 0;
};

/// Fuse a cube with a caller-provided pool (reusable across calls).
PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
                        const ParallelPctConfig& config);

/// Convenience overload owning a transient pool.
PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config);

/// The fused engine's pass 1 and statistics barrier, written once for
/// both of its drivers: fuse_parallel_fused screens the whole resident
/// cube as one block, stream::fuse_streaming screens one block per chunk.
///
/// screen() cuts a block of BIP rows into row tiles exactly as
/// hsi::partition_rows does and, per tile and in ONE sweep, builds the
/// tile's unique set and its moment sums (about a common origin: the first
/// finite pixel of the first block), flushing admitted members into the
/// sums every 32 admissions — so the unique set is never re-read after
/// screening.
/// fold() then merges those tiles in order into the running global pair.
/// The very first tile is admitted wholesale (its members are mutually
/// distinct under the same threshold). Every later tile goes through the
/// blocked-concurrent fold: candidates screen against the frozen member
/// prefix in parallel while admissions stay in fold order, so the merged
/// set equals a sequential left fold in tile order whatever the pool's
/// thread count. The moment sums stay exactly those of the merged set.
///
/// The result depends only on the sequence of tile boundaries: the same
/// tiles fed as one block or as many blocks give identical bits.
class FusedScreen {
 public:
  FusedScreen(int bands, double screening_threshold);

  /// Screen `rows` lines of `width` BIP pixels (`pixels` holds at least
  /// rows * width * bands floats) as `tiles` row tiles, concurrently on
  /// `pool`. Each screen() must be followed by fold() before the next.
  void screen(std::span<const float> pixels, int width, int rows, int tiles,
              ThreadPool& pool);

  /// Fold the tiles of the last screen(), in tile order, into the global
  /// unique set and moment sums.
  void fold(ThreadPool& pool);

  [[nodiscard]] std::size_t unique_set_size() const { return unique_.size(); }
  [[nodiscard]] std::uint64_t screen_comparisons() const {
    return screen_comparisons_;
  }
  [[nodiscard]] std::uint64_t merge_comparisons() const {
    return merge_comparisons_;
  }
  /// Mean and covariance of the merged unique set, corrected against its
  /// final mean (see linalg::MomentAccumulator). Abort if nothing has been
  /// folded yet.
  [[nodiscard]] std::vector<double> mean() const;
  [[nodiscard]] linalg::Matrix covariance() const;

 private:
  UniqueSet unique_;
  std::optional<linalg::MomentAccumulator> total_;
  std::vector<double> origin_;
  std::vector<UniqueSet> tile_sets_;
  std::vector<linalg::MomentAccumulator> tile_moments_;
  std::vector<std::uint8_t> dropped_;  // fold scratch, reused across tiles
  std::uint64_t screen_comparisons_ = 0;
  std::uint64_t merge_comparisons_ = 0;
};

/// The in-memory driver of the fused engine: one FusedScreen pass over the
/// resident cube, the eigen-solve on its statistics, then the transform and
/// colour map over the same row tiling, with full component planes.
///
/// With the same tile count this follows the same screening order and
/// admission rule as fuse_parallel — both engines screen through the one
/// shared SIMD kernel in UniqueSet, so the merged unique sets are
/// identical — and computes the same composite up to floating-point
/// rounding of the moment correction (per-pixel tolerance, not
/// bit-for-bit). `cov_shards` is ignored (covariance sharding is
/// replaced by per-tile accumulation).
PctResult fuse_parallel_fused(const hsi::ImageCube& cube, ThreadPool& pool,
                              const ParallelPctConfig& config);

/// Convenience overload owning a transient pool.
PctResult fuse_parallel_fused(const hsi::ImageCube& cube,
                              const ParallelPctConfig& config);

}  // namespace rif::core
