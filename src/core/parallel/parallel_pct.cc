#include "core/parallel/parallel_pct.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "hsi/partition.h"
#include "linalg/stats.h"
#include "obs/span_tracer.h"
#include "support/check.h"

namespace rif::core {

namespace {

/// Blocked-concurrent unique-set fold: merges `other` into `unique` with
/// the admission decisions (and member order) of the sequential left fold,
/// but screens each block of candidates against the frozen member prefix
/// concurrently; only the comparisons against members admitted after the
/// freeze — at most a block's worth — run in fold order. The dominant cost
/// (candidate x full-set comparisons) thus parallelizes while the
/// data-dependent tail stays tiny, lifting the two-pass engine's main
/// Amdahl bottleneck. Results are independent of the pool's thread count.
/// `dropped[i]` is set for each rejected member.
void merge_blocked(UniqueSet& unique, const UniqueSet& other,
                   ThreadPool& pool, std::vector<std::uint8_t>& dropped,
                   std::uint64_t* comparisons) {
  const std::size_t n = other.size();
  dropped.assign(n, 0);
  constexpr std::size_t kBlock = 64;
  std::vector<std::uint8_t> hit(std::min(kBlock, n));
  std::uint64_t comps = 0;
  std::atomic<std::uint64_t> scan_comps{0};
  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t count = std::min(kBlock, n - b0);
    const std::size_t frozen = unique.size();
    if (frozen > 0) {
      pool.parallel_for(
          static_cast<std::int64_t>(count),
          [&](std::int64_t lo, std::int64_t hi) {
            std::uint64_t local = 0;
            for (std::int64_t c = lo; c < hi; ++c) {
              const std::size_t i = b0 + static_cast<std::size_t>(c);
              hit[c] = unique.any_within(other.member(i), other.inv_norm(i),
                                         0, frozen, &local)
                           ? 1
                           : 0;
            }
            scan_comps += local;
          });
    } else {
      std::fill_n(hit.begin(), count, 0);
    }
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t i = b0 + c;
      if (hit[c] != 0 ||
          unique.any_within(other.member(i), other.inv_norm(i), frozen,
                            unique.size(), &comps)) {
        dropped[i] = 1;
        continue;
      }
      unique.admit(other.member(i), other.inv_norm(i));
    }
  }
  if (comparisons != nullptr) *comparisons += comps + scan_comps.load();
}

}  // namespace

FusedScreen::FusedScreen(int bands, double screening_threshold)
    : unique_(bands, screening_threshold) {}

void FusedScreen::screen(std::span<const float> pixels, int width, int rows,
                         int tiles, ThreadPool& pool) {
  RIF_CHECK_MSG(tile_sets_.empty(), "screen() twice without fold()");
  const int bands = unique_.bands();
  RIF_CHECK(width > 0 && rows > 0 &&
            pixels.size() >= static_cast<std::size_t>(width) * rows * bands);
  // Per-tile spans execute on pool workers, outside the caller's JobScope;
  // capture the ambient job once and attribute explicitly.
  const std::int64_t trace_job = obs::current_job();
  // Any shared origin works for the moment sums; a representative pixel
  // keeps them small so the final mean correction is well-conditioned. It
  // is the first finite pixel (a non-finite one never joins a set), or
  // zero if the block has none.
  if (origin_.empty()) {
    const auto n = static_cast<std::size_t>(bands);
    origin_.assign(n, 0.0);
    for (std::size_t p = 0; p < static_cast<std::size_t>(width) * rows; ++p) {
      const auto px = pixels.subspan(p * n, n);
      if (std::all_of(px.begin(), px.end(),
                      [](float v) { return std::isfinite(v); })) {
        origin_.assign(px.begin(), px.end());
        break;
      }
    }
  }
  const auto tile_list = hsi::partition_rows({width, rows, bands}, tiles);
  const int tile_count = static_cast<int>(tile_list.size());
  for (int i = 0; i < tile_count; ++i) {
    tile_sets_.emplace_back(bands, unique_.threshold());
    tile_moments_.emplace_back(bands, origin_);
  }
  // As members are admitted into a tile's unique set, fold them into the
  // tile's moment sums straight from the set's flat storage — cache-hot,
  // in blocks sized for the packed-triangle kernel.
  constexpr std::size_t kMomentBlock = 32;
  std::atomic<std::uint64_t> comparisons{0};
  pool.parallel_tasks(tile_count, [&](int i) {
    RIF_TRACE_SPAN_JOB("tile_screen", trace_job);
    UniqueSet& set = tile_sets_[static_cast<std::size_t>(i)];
    linalg::MomentAccumulator& mom = tile_moments_[static_cast<std::size_t>(i)];
    std::uint64_t local = 0;
    std::size_t flushed = 0;
    const auto& t = tile_list[static_cast<std::size_t>(i)];
    for (std::int64_t p = t.first_flat_index(); p < t.end_flat_index(); ++p) {
      set.screen(pixels.subspan(static_cast<std::size_t>(p) * bands,
                                static_cast<std::size_t>(bands)),
                 &local);
      if (set.size() - flushed >= kMomentBlock) {
        mom.add_block(set.flat().data() + flushed * bands,
                      static_cast<int>(set.size() - flushed));
        flushed = set.size();
      }
    }
    if (set.size() > flushed) {
      mom.add_block(set.flat().data() + flushed * bands,
                    static_cast<int>(set.size() - flushed));
    }
    comparisons += local;
  });
  screen_comparisons_ += comparisons.load();
}

void FusedScreen::fold(ThreadPool& pool) {
  for (std::size_t i = 0; i < tile_sets_.size(); ++i) {
    const UniqueSet& tile_set = tile_sets_[i];
    linalg::MomentAccumulator& tile_moments = tile_moments_[i];
    if (!total_) {
      unique_ = std::move(tile_sets_[i]);
      total_ = std::move(tile_moments);
      continue;
    }
    // The surviving moment sums follow the cheaper of two exact paths:
    // retract the dropped members from the tile's sums, or rebuild the
    // tile's contribution from the admitted members (contiguous in the
    // merged set's flat storage, so the blocked kernel applies).
    const std::size_t admit_start = unique_.size();
    merge_blocked(unique_, tile_set, pool, dropped_, &merge_comparisons_);
    const std::size_t admits = unique_.size() - admit_start;
    const std::size_t drops = tile_set.size() - admits;
    if (drops <= admits) {
      total_->merge(tile_moments);
      for (std::size_t j = 0; j < tile_set.size(); ++j) {
        if (dropped_[j] != 0) total_->remove(tile_set.member(j));
      }
    } else if (admits > 0) {
      total_->add_block(unique_.flat().data() + admit_start * unique_.bands(),
                        static_cast<int>(admits));
    }
  }
  tile_sets_.clear();
  tile_moments_.clear();
  RIF_CHECK(!total_ || total_->count() == unique_.size());
}

std::vector<double> FusedScreen::mean() const {
  RIF_CHECK(total_.has_value());
  return total_->mean();
}

linalg::Matrix FusedScreen::covariance() const {
  RIF_CHECK(total_.has_value());
  return total_->covariance();
}

PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
                        const ParallelPctConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  const int bands = cube.bands();
  const int tiles = config.tiles > 0 ? config.tiles : pool.size();
  PctResult result;

  // Step 1 (concurrent): per-tile unique sets.
  const hsi::CubeShape shape{cube.width(), cube.height(), bands};
  const auto tile_list = hsi::partition_rows(shape, tiles);
  std::vector<UniqueSet> tile_sets;
  tile_sets.reserve(tile_list.size());
  for (const auto& t : tile_list) {
    (void)t;
    tile_sets.emplace_back(bands, config.pct.screening_threshold);
  }
  std::atomic<std::uint64_t> comparisons{0};
  pool.parallel_tasks(static_cast<int>(tile_list.size()), [&](int i) {
    const auto& t = tile_list[i];
    std::uint64_t local = 0;
    const std::int64_t first = t.first_flat_index();
    for (std::int64_t p = first; p < first + t.pixels(); ++p) {
      tile_sets[i].screen(cube.pixel(p), &local);
    }
    comparisons += local;
  });
  result.screen_comparisons = comparisons.load();

  // Step 2: merge the per-tile sets in tile order, as the distributed
  // manager does.
  UniqueSet unique(bands, config.pct.screening_threshold);
  for (const auto& set : tile_sets) {
    unique.merge(set, &result.merge_comparisons);
  }
  result.unique_set_size = unique.size();
  RIF_CHECK_MSG(unique.size() >= 3, "degenerate scene: unique set too small");

  // Step 3: mean over the unique set.
  linalg::MeanAccumulator mean_acc(bands);
  for (std::size_t i = 0; i < unique.size(); ++i) mean_acc.add(unique.member(i));
  result.mean = mean_acc.mean();

  // Step 4 (concurrent): sharded covariance sums.
  const int shards = config.cov_shards > 0 ? config.cov_shards : pool.size();
  const auto chunks =
      hsi::partition_range(static_cast<std::int64_t>(unique.size()), shards);
  std::vector<linalg::CovarianceAccumulator> accs;
  accs.reserve(shards);
  for (int s = 0; s < shards; ++s) accs.emplace_back(bands, result.mean);
  pool.parallel_tasks(shards, [&](int s) {
    constexpr std::int64_t kRows = linalg::CovarianceAccumulator::kBlockRows;
    for (std::int64_t i = chunks[s].begin; i < chunks[s].end; i += kRows) {
      accs[s].add_block(unique.flat().data() + i * bands,
                        static_cast<int>(std::min(kRows, chunks[s].end - i)));
    }
  });

  // Step 5 (sequential): average.
  linalg::CovarianceAccumulator total = std::move(accs.front());
  for (int s = 1; s < shards; ++s) total.merge(accs[s]);
  const linalg::Matrix cov = total.covariance();

  // Step 6 (sequential): eigen-decomposition.
  linalg::EigenResult eig = linalg::jacobi_eigen(cov, config.pct.jacobi);
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // Steps 7-8 (concurrent): transform + colour map.
  const linalg::Matrix t =
      transform_matrix(eig.vectors, config.pct.output_components);
  const auto scales = scales_from_eigenvalues(eig.values);
  const auto n = static_cast<std::size_t>(cube.pixel_count());
  result.component_planes.assign(config.pct.output_components,
                                 std::vector<float>(n));
  result.composite = hsi::RgbImage(cube.width(), cube.height());
  pool.parallel_for(cube.pixel_count(), [&](std::int64_t lo, std::int64_t hi) {
    transform_and_map_range(cube, t, result.mean, scales,
                            result.component_planes, result.composite, lo, hi);
  });
  return result;
}

PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config) {
  ThreadPool pool(config.threads);
  return fuse_parallel(cube, pool, config);
}

PctResult fuse_parallel_fused(const hsi::ImageCube& cube, ThreadPool& pool,
                              const ParallelPctConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  // Per-tile spans execute on pool workers, outside the caller's JobScope;
  // capture the ambient job once and attribute explicitly.
  const std::int64_t trace_job = obs::current_job();
  const int tiles = config.tiles > 0 ? config.tiles : pool.size();
  PctResult result;

  // Manual phase begin/end (one RAII span would blanket the whole engine);
  // `traced` is captured once so every begun phase also ends.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  const bool traced = tracer.enabled();
  FusedScreen fused(cube.bands(), config.pct.screening_threshold);
  if (traced) tracer.begin("fused_screen", trace_job);
  fused.screen(cube.raw(), cube.width(), cube.height(), tiles, pool);
  if (traced) tracer.end("fused_screen", trace_job);
  if (traced) tracer.begin("fused_fold", trace_job);
  fused.fold(pool);
  if (traced) tracer.end("fused_fold", trace_job);
  result.screen_comparisons = fused.screen_comparisons();
  result.merge_comparisons = fused.merge_comparisons();
  result.unique_set_size = fused.unique_set_size();
  RIF_CHECK_MSG(result.unique_set_size >= 3,
                "degenerate scene: unique set too small");
  result.mean = fused.mean();
  const linalg::Matrix cov = fused.covariance();

  // Eigen-decomposition (sequential, as in every engine).
  if (traced) tracer.begin("fused_eigen", trace_job);
  linalg::EigenResult eig = linalg::jacobi_eigen(cov, config.pct.jacobi);
  if (traced) tracer.end("fused_eigen", trace_job);
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // Transform + colour map, reusing the same row tiling as the fused pass.
  const auto tile_list = hsi::partition_rows(
      {cube.width(), cube.height(), cube.bands()}, tiles);
  const linalg::Matrix t =
      transform_matrix(eig.vectors, config.pct.output_components);
  const auto scales = scales_from_eigenvalues(eig.values);
  const auto n = static_cast<std::size_t>(cube.pixel_count());
  result.component_planes.assign(config.pct.output_components,
                                 std::vector<float>(n));
  result.composite = hsi::RgbImage(cube.width(), cube.height());
  if (traced) tracer.begin("fused_transform", trace_job);
  pool.parallel_tasks(static_cast<int>(tile_list.size()), [&](int i) {
    RIF_TRACE_SPAN_JOB("tile_transform", trace_job);
    transform_and_map_range(cube, t, result.mean, scales,
                            result.component_planes, result.composite,
                            tile_list[i].first_flat_index(),
                            tile_list[i].end_flat_index());
  });
  if (traced) tracer.end("fused_transform", trace_job);
  return result;
}

PctResult fuse_parallel_fused(const hsi::ImageCube& cube,
                              const ParallelPctConfig& config) {
  ThreadPool pool(config.threads);
  return fuse_parallel_fused(cube, pool, config);
}

}  // namespace rif::core
