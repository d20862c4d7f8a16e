#include "core/parallel/parallel_pct.h"

#include <algorithm>
#include <atomic>

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
/// data-dependent tail stays tiny, lifting the sequential merge's Amdahl
/// bottleneck. Results, comparison count included, equal
/// UniqueSet::merge's whatever the pool's thread count.
void merge_blocked(UniqueSet& unique, const UniqueSet& other,
                   ThreadPool& pool, std::uint64_t* comparisons) {
  const std::size_t n = other.size();
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
      if (hit[c] == 0 &&
          !unique.any_within(other.member(i), other.inv_norm(i), frozen,
                             unique.size(), &comps)) {
        unique.admit(other.member(i), other.inv_norm(i));
      }
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
  const auto tile_list = hsi::partition_rows({width, rows, bands}, tiles);
  tile_sets_.assign(tile_list.size(), UniqueSet(bands, unique_.threshold()));
  std::atomic<std::uint64_t> comparisons{0};
  pool.parallel_tasks(static_cast<int>(tile_list.size()), [&](int i) {
    RIF_TRACE_SPAN_JOB("tile_screen", trace_job);
    UniqueSet& set = tile_sets_[static_cast<std::size_t>(i)];
    std::uint64_t local = 0;
    const auto& t = tile_list[static_cast<std::size_t>(i)];
    for (std::int64_t p = t.first_flat_index(); p < t.end_flat_index(); ++p) {
      set.screen(pixels.subspan(static_cast<std::size_t>(p) * bands,
                                static_cast<std::size_t>(bands)),
                 &local);
    }
    comparisons += local;
  });
  screen_comparisons_ += comparisons.load();
}

void FusedScreen::fold(ThreadPool& pool) {
  for (const UniqueSet& tile_set : tile_sets_) {
    merge_blocked(unique_, tile_set, pool, &merge_comparisons_);
  }
  tile_sets_.clear();
}

std::vector<double> FusedScreen::mean() const {
  linalg::MeanAccumulator acc(unique_.bands());
  for (std::size_t i = 0; i < unique_.size(); ++i) acc.add(unique_.member(i));
  return acc.mean();
}

linalg::Matrix FusedScreen::covariance(const std::vector<double>& mean,
                                       int shards, ThreadPool& pool) const {
  const int bands = unique_.bands();
  const auto chunks =
      hsi::partition_range(static_cast<std::int64_t>(unique_.size()), shards);
  std::vector<linalg::CovarianceAccumulator> accs(
      static_cast<std::size_t>(shards),
      linalg::CovarianceAccumulator(bands, mean));
  pool.parallel_tasks(shards, [&](int s) {
    accs[s].add_rows(unique_.flat().data() + chunks[s].begin * bands,
                     static_cast<std::uint64_t>(chunks[s].size()));
  });
  linalg::CovarianceAccumulator total = std::move(accs.front());
  for (int s = 1; s < shards; ++s) total.merge(accs[s]);
  return total.covariance();
}

PctResult fuse_parallel(const hsi::ImageCube& cube, ThreadPool& pool,
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

  // Statistics barrier: mean, sharded covariance, eigen-decomposition.
  if (traced) tracer.begin("fused_eigen", trace_job);
  result.mean = fused.mean();
  linalg::EigenResult eig = linalg::jacobi_eigen(
      fused.covariance(result.mean, config.cov_shards, pool),
      config.pct.jacobi);
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

PctResult fuse_parallel(const hsi::ImageCube& cube,
                        const ParallelPctConfig& config) {
  ThreadPool pool(config.threads);
  return fuse_parallel(cube, pool, config);
}

}  // namespace rif::core
