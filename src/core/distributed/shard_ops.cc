#include "core/distributed/shard_ops.h"

#include <algorithm>
#include <array>

#include "core/color_map.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "linalg/matrix.h"
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
  const std::int64_t px_count = tile.pixels();
  const int bands = tm.bands;
  const int comps = tm.components;
  linalg::Matrix transform(comps, bands);
  std::copy(tm.matrix.begin(), tm.matrix.end(), transform.data());
  std::array<ComponentScale, 3> scales{};
  for (int c = 0; c < 3; ++c) {
    scales[c] = ComponentScale{tm.scale_mean[c], tm.scale_gain[c]};
  }
  ColorTileMsg color;
  color.tile = tile;
  color.rgb.resize(static_cast<std::size_t>(px_count) * 3);
  // Same blocked SIMD projection as the shared-memory engines — the shared
  // kernel keeps shard composites bit-identical to the sequential reference.
  const std::vector<double> bias = projection_bias(transform, tm.mean);
  std::vector<float> comp(static_cast<std::size_t>(px_count) * comps);
  project_pixels(transform, bias, data, px_count, comp.data());
  for (std::int64_t p = 0; p < px_count; ++p) {
    const float* cp = comp.data() + p * comps;
    const auto rgb = map_pixel({cp[0], cp[1], cp[2]}, scales);
    color.rgb[p * 3 + 0] = rgb[0];
    color.rgb[p * 3 + 1] = rgb[1];
    color.rgb[p * 3 + 2] = rgb[2];
  }
  return color;
}

}  // namespace rif::core
