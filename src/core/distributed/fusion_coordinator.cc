#include "core/distributed/fusion_coordinator.h"

#include <algorithm>
#include <cmath>

#include "core/pct.h"
#include "support/check.h"

namespace rif::core {

FusionCoordinator::FusionCoordinator(const hsi::CubeShape& shape,
                                     const hsi::ImageCube* cube,
                                     int total_tiles,
                                     double screening_threshold,
                                     int output_components,
                                     JobOutcome& outcome)
    : shape_(shape),
      cube_(cube),
      threshold_(screening_threshold),
      output_components_(output_components),
      outcome_(outcome),
      tiles_(hsi::partition_rows(shape, total_tiles)),
      screened_(tiles_.size(), false),
      colored_(tiles_.size(), false) {
  if (cube_ == nullptr) return;
  RIF_CHECK(cube_->width() == shape.width && cube_->height() == shape.height &&
            cube_->bands() == shape.bands);
  merged_.emplace(shape.bands, threshold_);
  outcome_.composite = hsi::RgbImage(shape.width, shape.height);
}

WireTile FusionCoordinator::tile(int t) const {
  RIF_CHECK(t >= 0 && t < tile_count());
  return WireTile::from(tiles_[static_cast<std::size_t>(t)]);
}

std::span<const float> FusionCoordinator::pixels(int t) const {
  RIF_CHECK(t >= 0 && t < tile_count());
  if (cube_ == nullptr) return {};
  // Row tiles are contiguous in the band-interleaved cube.
  const hsi::Tile& tl = tiles_[static_cast<std::size_t>(t)];
  return std::span<const float>(cube_->raw()).subspan(
      static_cast<std::size_t>(tl.first_flat_index() * tl.bands),
      static_cast<std::size_t>(tl.pixels() * tl.bands));
}

TileAssignMsg FusionCoordinator::assign(int t) const {
  const std::span<const float> px = pixels(t);
  return {tile(t), {px.begin(), px.end()}};
}

FusionCoordinator::Intake FusionCoordinator::accept_screen(
    ScreenResultMsg result) {
  RIF_CHECK_MSG(merged_.has_value(), "merging needs a cube");
  // The result may come off a wire: bound the index, and vet the member
  // array the way UniqueSet::from_flat would (it aborts on a ragged length
  // or a zero or non-finite member) while the tile can still be re-screened.
  const int t = result.tile.index;
  if (t < 0 || t >= tile_count()) return Intake::kRefused;
  const auto bands = static_cast<std::size_t>(shape_.bands);
  const std::vector<float>& v = result.vectors;
  if (v.size() % bands != 0) return Intake::kRefused;
  if (!std::all_of(v.begin(), v.end(),
                   [](float x) { return std::isfinite(x); })) {
    return Intake::kRefused;
  }
  for (std::size_t m = 0; m < v.size(); m += bands) {
    if (std::all_of(v.begin() + m, v.begin() + m + bands,
                    [](float x) { return x == 0.0f; })) {
      return Intake::kRefused;
    }
  }
  if (screened_[t]) return Intake::kRepeat;

  screened_[t] = true;
  outcome_.screen_comparisons += result.comparisons;
  pending_.emplace(t, std::move(result.vectors));
  // Merge strictly in tile order: the merged set, and everything computed
  // from it, is then independent of which tile finished first.
  for (auto it = pending_.find(merged_tiles_); it != pending_.end();
       it = pending_.find(merged_tiles_)) {
    std::uint64_t comparisons = 0;
    merged_->merge(UniqueSet::from_flat(shape_.bands, threshold_,
                                        std::move(it->second)),
                   &comparisons);
    outcome_.merge_comparisons += comparisons;
    pending_.erase(it);
    ++merged_tiles_;
  }
  return Intake::kAccepted;
}

std::vector<CovShardMsg> FusionCoordinator::size_shards(std::int64_t members,
                                                        int count) {
  const auto chunks = hsi::partition_range(members, count);
  std::vector<CovShardMsg> shards(chunks.size());
  for (std::size_t s = 0; s < chunks.size(); ++s) {
    shards[s].shard_index = s;
    shards[s].shard_count = static_cast<std::uint64_t>(chunks[s].size());
  }
  return shards;
}

std::vector<CovShardMsg> FusionCoordinator::covariance_shards(int count) {
  RIF_CHECK(screening_done() && sums_.empty());
  outcome_.unique_set_size = merged_->size();
  mean_ = merged_->mean();

  std::vector<CovShardMsg> shards =
      size_shards(static_cast<std::int64_t>(merged_->size()), count);
  // Members are contiguous in the merged set: each shard is one range.
  const float* next = merged_->flat().data();
  for (CovShardMsg& shard : shards) {
    shard.mean = mean_;
    shard.vectors.assign(next, next + shard.shard_count * shape_.bands);
    next += shard.shard_count * shape_.bands;
    shard_sizes_.push_back(shard.shard_count);
  }
  sums_.resize(shards.size());
  return shards;
}

bool FusionCoordinator::accept_cov_sum(const CovSumMsg& sum) {
  // Pair the sum with its shard by the echoed index, never by arrival
  // order: each sum was computed against one specific shard.
  if (sum.shard_index >= sums_.size() || sums_[sum.shard_index]) return false;
  auto acc = linalg::CovarianceAccumulator::try_decode(sum.accumulator);
  if (!acc || acc->dims() != shape_.bands || acc->mean() != mean_ ||
      acc->count() != shard_sizes_[sum.shard_index]) {
    return false;
  }
  sums_[sum.shard_index] = std::move(*acc);
  ++sums_received_;
  return true;
}

TransformMsg FusionCoordinator::transform() {
  RIF_CHECK(covariance_done());
  // Shard-index order, whoever computed each sum: this is what keeps the
  // eigenbasis identical across timings, resends and failures.
  std::vector<linalg::CovarianceAccumulator> sums;
  for (const auto& sum : sums_) sums.push_back(*sum);
  const BarrierResult barrier = manager_barrier(sums, output_components_);
  outcome_.eigenvalues = barrier.eigen.values;
  return TransformMsg::from(barrier.projection);
}

bool FusionCoordinator::accept_color(const ColorTileMsg& color) {
  RIF_CHECK_MSG(cube_ != nullptr, "placing colour tiles needs a cube");
  const int t = color.tile.index;
  if (t < 0 || t >= tile_count() || colored_[t]) return false;
  // Geometry comes from our own partition, never from the message.
  const hsi::Tile& tl = tiles_[static_cast<std::size_t>(t)];
  if (color.rgb.size() != static_cast<std::size_t>(tl.pixels()) * 3) {
    return false;
  }
  std::copy(color.rgb.begin(), color.rgb.end(),
            outcome_.composite.data.begin() +
                static_cast<std::ptrdiff_t>(tl.first_flat_index()) * 3);
  colored_[t] = true;
  ++outcome_.tiles_colored;
  return true;
}

}  // namespace rif::core
