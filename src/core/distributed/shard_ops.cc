#include "core/distributed/shard_ops.h"

#include "core/pct.h"
#include "core/spectral_angle.h"
#include "linalg/stats.h"
#include "support/check.h"

namespace rif::core {

ScreenResultMsg screen_shard(const WireTile& tile, const float* data,
                             double screening_threshold) {
  const std::int64_t pixels = tile.pixels();
  const int bands = tile.bands;
  UniqueSet set(bands, screening_threshold);
  std::uint64_t comparisons = 0;
  for (std::int64_t p = 0; p < pixels; ++p) {
    set.screen({data + p * bands, static_cast<std::size_t>(bands)},
               &comparisons);
  }
  ScreenResultMsg result;
  result.tile = tile;
  result.unique_count = set.size();
  result.comparisons = comparisons;
  result.vectors = set.flat();
  return result;
}

CovSumMsg cov_shard_sum(const CovShardMsg& shard, int bands) {
  RIF_CHECK(shard.vectors.size() ==
            shard.shard_count * static_cast<std::uint64_t>(bands));
  linalg::CovarianceAccumulator acc(bands, shard.mean);
  acc.add_rows(shard.vectors.data(), shard.shard_count);
  CovSumMsg sum;
  sum.shard_index = shard.shard_index;
  sum.accumulator = acc.encode();
  return sum;
}

ColorTileMsg color_shard(const WireTile& tile, const float* data,
                         const TransformMsg& tm) {
  // The held tile must have the transform's band count; the transform's
  // own shape is vetted by TransformMsg::try_decode.
  RIF_CHECK(tile.bands == tm.bands);
  ColorTileMsg color;
  color.tile = tile;
  color.rgb.resize(static_cast<std::size_t>(tile.pixels()) * 3);
  // The colour-map loop of every engine: it keeps shard composites
  // bit-identical to the shared-memory and sequential ones.
  transform_and_map_chunk(data, tile.pixels(), tm.projection(), nullptr,
                          color.rgb.data());
  return color;
}

}  // namespace rif::core
