// Shared-memory variant of the spectral-screening PCT pipeline.
//
// This is the real multithreaded implementation (the paper's §4 remark:
// "On a shared memory system, the concurrent algorithm presented here
// operates within 5% of linear speedup"). It computes exactly the same
// function as the distributed Full-mode run with the same tile and shard
// counts: per-tile screening, in-order merge, sharded covariance,
// sequential eigen step, parallel transform + colour mapping.
//
// The engine is stream::fuse_chunks (stream/streaming_engine.h); this
// header holds its screening stage and fuse_parallel, its resident driver.
// Its barrier (steps 5-6 and the transform) is core::manager_barrier, the
// distributed manager's own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "core/spectral_angle.h"

namespace rif::core {

struct ParallelPctConfig {
  PctConfig pct;
  int threads = 4;
  /// Screening tiles; defaults to `threads` when 0. Using the same value as
  /// a distributed run's total tile count makes the outputs identical.
  int tiles = 0;
  /// Covariance shards, summed separately and merged in shard order.
  /// Summation grouping affects floating-point rounding, so this is a fixed
  /// count, never the pool size: set it to a distributed run's shard count
  /// for a bit-exact comparison.
  int cov_shards = 1;
};

/// The shared-memory engine's pass 1: stream::fuse_chunks
/// screens one block per chunk, which for a resident cube is the whole
/// cube.
///
/// screen() cuts a block of BIP rows into row tiles exactly as
/// hsi::partition_rows does and screens each tile into its own unique set,
/// concurrently. fold() then merges those tiles in order into the running
/// global set through the blocked-concurrent fold: candidates screen
/// against the frozen member prefix in parallel while admissions stay in
/// fold order, so the merged set and its comparison count equal the
/// manager's sequential left fold (UniqueSet::merge) in tile order whatever
/// the pool's thread count. Every tile goes through it, the first included.
/// The merged set then feeds core::manager_barrier (core/pct.h), the one
/// barrier the distributed manager runs too.
///
/// The merged set depends only on the sequence of tile boundaries: the same
/// tiles fed as one block or as many blocks give identical bits, and so
/// does the distributed manager's merge at the same tile count.
class FusedScreen {
 public:
  FusedScreen(int bands, double screening_threshold);

  /// Screen `rows` lines of `width` BIP pixels (`pixels` holds at least
  /// rows * width * bands floats) as `tiles` row tiles, concurrently on
  /// `pool`. Each screen() must be followed by fold() before the next.
  void screen(std::span<const float> pixels, int width, int rows, int tiles,
              ThreadPool& pool);

  /// Fold the tiles of the last screen(), in tile order, into the global
  /// unique set.
  void fold(ThreadPool& pool);

  /// The global unique set: every tile folded so far, in fold order.
  [[nodiscard]] const UniqueSet& unique() const { return unique_; }
  [[nodiscard]] std::uint64_t screen_comparisons() const {
    return screen_comparisons_;
  }
  [[nodiscard]] std::uint64_t merge_comparisons() const {
    return merge_comparisons_;
  }

 private:
  UniqueSet unique_;
  std::vector<UniqueSet> tile_sets_;
  std::uint64_t screen_comparisons_ = 0;
  std::uint64_t merge_comparisons_ = 0;
};

/// Fuse a resident cube on a caller-provided pool (reusable across calls):
/// stream::fuse_chunks over the cube as one chunk, with full component
/// planes. With the same tile and shard counts the result is bit-identical
/// to the distributed run and to stream::fuse_streaming at matched tile
/// boundaries; with those fixed, the thread count does not change it.
/// Aborts on a degenerate scene (a unique set of fewer than 3 members), as
/// core::fuse does; callers that must survive one, like the service, call
/// fuse_chunks and get nullopt instead.
PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
                        const ParallelPctConfig& config);

/// Convenience overload owning a transient pool.
PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config);

/// The former name of fuse_parallel, still called by perfbench.
inline PctResult fuse_parallel_fused(const hsi::ImageCube& cube,
                                     ThreadPool& pool,
                                     const ParallelPctConfig& config) {
  return fuse_parallel(cube, pool, config);
}

}  // namespace rif::core
