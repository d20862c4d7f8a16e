// The manager steps of the distributed spectral-screening PCT, independent
// of how messages travel.
//
// Both managers — the sim ManagerActor (virtual-time actor runtime) and the
// socket coordinator (service/remote_exec.cc, real worker processes) — are
// thin callers of this one class: they own delivery, cost charging,
// liveness and resends; the coordinator owns the arithmetic and its order.
// It partitions the cube into row tiles, packs tile assignments, merges the
// per-tile unique sets strictly in tile order (step 2), computes the mean
// and the covariance shards (steps 3-4), hands the shard sums in shard
// order to core::manager_barrier (steps 5-6 and the transform, the barrier
// stream::fuse_chunks runs too), and places colour tiles by its own
// partition. Those fixed orders make the composite a pure function of the
// tile and shard counts, so sim, socket and fuse_parallel agree byte for
// byte.
//
// Every intake validates its message before touching any state: a refused
// message leaves no trace, so a transport can drop it and re-send the work.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/distributed/messages.h"
#include "core/spectral_angle.h"
#include "hsi/image_cube.h"
#include "hsi/image_io.h"
#include "hsi/partition.h"
#include "linalg/stats.h"
#include "support/time.h"

namespace rif::core {

/// Where a job's results land; owned by the caller.
struct JobOutcome {
  bool completed = false;
  SimTime completion_time = 0;
  std::size_t unique_set_size = 0;
  std::uint64_t screen_comparisons = 0;
  std::uint64_t merge_comparisons = 0;
  std::vector<double> eigenvalues;
  hsi::RgbImage composite;  ///< valid in Full mode only
  int tiles_distributed = 0;
  int tiles_colored = 0;
};

class FusionCoordinator {
 public:
  /// What a screen result did to the merge.
  enum class Intake {
    kRefused,   ///< malformed or out of range: nothing changed
    kRepeat,    ///< well formed, but the tile was already screened
    kAccepted,  ///< queued for (or applied to) the tile-order merge
  };

  /// `cube` may be null for a dimension-only run: then only the partition
  /// and descriptor-only assignments are available. Otherwise it must match
  /// `shape` and outlive the coordinator. The composite is allocated in
  /// `outcome`, which must outlive the coordinator too.
  FusionCoordinator(const hsi::CubeShape& shape, const hsi::ImageCube* cube,
                    int total_tiles, double screening_threshold,
                    int output_components, JobOutcome& outcome);

  [[nodiscard]] int tile_count() const {
    return static_cast<int>(tiles_.size());
  }

  /// Tile `t`'s descriptor.
  [[nodiscard]] WireTile tile(int t) const;
  /// Tile `t`'s pixels, a view into the cube (empty without one).
  [[nodiscard]] std::span<const float> pixels(int t) const;
  /// Tile `t`'s assignment: its descriptor plus a copy of its pixels.
  [[nodiscard]] TileAssignMsg assign(int t) const;

  /// Step 2: take one tile's unique set and merge every tile now contiguous
  /// with the merged prefix, in tile order.
  Intake accept_screen(ScreenResultMsg result);
  [[nodiscard]] bool screening_done() const {
    return merged_tiles_ == tile_count();
  }

  /// Split `members` set members into `count` contiguous shards in member
  /// order: indices and sizes only. The dimension-only sim shards its
  /// modelled set with this too.
  [[nodiscard]] static std::vector<CovShardMsg> size_shards(
      std::int64_t members, int count);

  /// Steps 3-4, once screening_done(): the mean of the merged set and its
  /// `count` covariance shards, each carrying its members and the mean.
  [[nodiscard]] std::vector<CovShardMsg> covariance_shards(int count);

  /// Store one shard's covariance sum under its echoed index. Refused when
  /// the index is unknown or already answered, or the sum does not decode
  /// to the dims, mean and member count of that shard.
  bool accept_cov_sum(const CovSumMsg& sum);
  [[nodiscard]] bool covariance_done() const {
    return !sums_.empty() && sums_received_ == static_cast<int>(sums_.size());
  }

  /// Steps 5-6, once covariance_done(): core::manager_barrier over the
  /// sums in shard order; records the eigenvalues and returns the
  /// projection as the workers' transform.
  [[nodiscard]] TransformMsg transform();

  /// Steps 7-8 results: place one colour tile. Refused when the index is
  /// out of range or already coloured, or the pixel count disagrees with
  /// the partition.
  bool accept_color(const ColorTileMsg& color);
  [[nodiscard]] bool colored(int t) const { return colored_[t]; }

 private:
  hsi::CubeShape shape_;
  const hsi::ImageCube* cube_;
  double threshold_;
  int output_components_;
  JobOutcome& outcome_;
  std::vector<hsi::Tile> tiles_;

  // Step 2: screened tiles wait in `pending_` until the merged prefix
  // reaches them.
  std::vector<bool> screened_;
  std::map<int, std::vector<float>> pending_;
  int merged_tiles_ = 0;
  std::optional<UniqueSet> merged_;

  // Steps 3-6.
  std::vector<double> mean_;
  std::vector<std::uint64_t> shard_sizes_;
  std::vector<std::optional<linalg::CovarianceAccumulator>> sums_;
  int sums_received_ = 0;

  std::vector<bool> colored_;
};

}  // namespace rif::core
