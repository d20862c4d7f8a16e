// The shared-memory fusion engine, written once over a chunk source, for
// a cube resident in memory and for one streamed from disk.
//
// fuse_chunks makes two passes over a ChunkSource, around the statistics
// barrier PCA cannot avoid (eigenvectors need the full covariance before
// any pixel can be transformed):
//
//   pass 1  per chunk, core::FusedScreen: the chunk is sub-tiled across the
//           pool, each sub-tile screened into its unique set, then folded
//           in chunk order;
//   barrier mean and `cov_shards` covariance sums of the merged unique set
//           (held in memory), then core::manager_barrier: the shard-order
//           merge, the tridiagonal-QL eigen-solve and the projection, the
//           same function the distributed manager runs. A unique set of
//           fewer than 3 members fails the run: it is a property of the
//           input;
//   pass 2  per chunk, blocked SIMD transform + colour map over the same
//           sub-tiles: composite bytes land in place, component planes go
//           to an optional sink.
//
// CubeChunkSource hands over a resident cube as ONE zero-copy chunk, so
// its tiles are hsi::partition_rows of the cube (core::fuse_parallel and
// the service's Full-mode jobs). open_cube_file streams a file: a
// dedicated reader thread pulls chunks of `chunk_lines` lines through a
// ChunkedCubeReader into `queue_depth` recycled buffers and hands them to
// the compute stage over a BoundedQueue, whose capacity is backpressure:
// in-flight memory stays at queue_depth chunks, never the cube, while
// read-ahead hides disk latency behind screening.
//
// Contract: the result depends only on the tile boundaries and the shard
// count. A streamed run is byte-identical to core::fuse_parallel at
// matched tile boundaries (chunk_lines x tiles_per_chunk aligned with
// ParallelPctConfig::tiles) and one covariance shard: composite bytes,
// unique set, eigenvalues, mean and comparison counts (tests/stream_test.cc).
//
// Deadlock safety with the help-while-waiting ThreadPool: the reader runs
// on its own std::thread and never touches the pool, so the compute stage
// may block on the queue (it parks, it does not help) yet always gets its
// next chunk, on any pool size, including 1 (regression-tested).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "hsi/image_cube.h"
#include "runtime/metrics.h"

namespace rif::stream {

/// The engine reads pct, tiles_per_chunk, plane_sink and metrics; the file
/// source reads chunk_lines and queue_depth, fixed for the whole run.
struct StreamingConfig {
  core::PctConfig pct;

  /// Image lines per chunk. The unit of I/O, of screening-fold granularity
  /// and of memory budgeting: peak buffer memory is
  /// queue_depth x chunk_lines x samples x bands x 4 bytes. Bounds shared
  /// with submit-time validation (runtime/chunk_geometry.h); out-of-bounds
  /// values fail the run with a logged error.
  int chunk_lines = 64;

  /// Total chunk buffers in flight (>= 3): one filling at the reader, one
  /// draining at the compute stage, the rest queued between them as
  /// read-ahead. This bounds the engine's buffer footprint — backpressure
  /// from the full queue throttles the reader when compute falls behind.
  int queue_depth = 4;

  /// Optional long-lived registry (e.g. the FusionService's): the run's
  /// private series are folded in under `metrics_prefix` when the run
  /// succeeds — counters add, max-gauges max, histograms merge — so
  /// concurrent jobs aggregate instead of clobbering each other.
  runtime::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "stream.";

  /// Sub-tiles per chunk, screened and then transformed one task each
  /// (the compute stage's parallelism); 0 = pool size. Chunk x sub-tile
  /// boundaries define the screening fold order, exactly like
  /// ParallelPctConfig::tiles: choose
  /// chunks * tiles_per_chunk boundaries that match an in-memory engine's
  /// row partition when comparing outputs.
  int tiles_per_chunk = 0;

  /// Optional sink for the raw component planes, called once per chunk in
  /// ascending chunk order from the compute thread:
  /// (first_flat_pixel, pixel_count, comps, planes) with `planes`
  /// pixel-major (pixel_count x comps, valid only during the call). When
  /// unset, component planes are simply not produced — the engine never
  /// holds plane storage for more than one chunk either way.
  std::function<void(std::int64_t first_flat, std::int64_t count, int comps,
                     const float* planes)>
      plane_sink;
};

/// Per-stage observability of one run: a view materialized at its end from
/// the run's private registry (per-chunk latency histograms, stall gauges,
/// queue series), the per-job summary JobRecord::stream carries. Stall
/// seconds tell the bottleneck story without a profiler: reader_stall ~
/// backpressure (compute-bound), compute_stall ~ starvation (I/O-bound).
struct StreamingStats {
  int chunks = 0;                 ///< chunks consumed in pass 1
  std::uint64_t bytes_read = 0;   ///< file bytes read (both passes)
  std::uint64_t chunk_bytes = 0;  ///< largest BIP chunk read (a full chunk)
  /// High-water of live chunk-buffer bytes — the engine's whole variable
  /// footprint besides the unique set and the output image. Bounded by
  /// queue_depth x chunk_bytes by construction, and equal to it when the
  /// file holds at least queue_depth chunks.
  std::uint64_t peak_buffer_bytes = 0;
  double read_seconds = 0.0;     ///< reader thread inside read_lines
  double reader_stall_seconds = 0.0;   ///< reader blocked (backpressure)
  double compute_stall_seconds = 0.0;  ///< compute blocked (starved)
  double screen_seconds = 0.0;     ///< compute stage, pass 1 (excl. stalls)
  double transform_seconds = 0.0;  ///< compute stage, pass 2 (excl. stalls)
};

/// What fuse() returns, except that component_planes stays empty: the
/// planes go to StreamingConfig::plane_sink instead.
struct StreamingResult : core::PctResult {
  StreamingStats stats;
};

/// Whole image lines of a cube in BIP order, valid during one consume call.
struct ChunkView {
  int line0 = 0;                  ///< first image line
  int rows = 0;                   ///< lines in the chunk
  const float* pixels = nullptr;  ///< rows x width x bands floats
};

/// Where the engine's chunks come from. Each pass feeds the whole cube,
/// line 0 to the last, through `consume` on the calling thread. The engine
/// makes two passes per run and gives each the run's private registry for
/// the source's own series. False on an I/O error.
class ChunkSource {
 public:
  ChunkSource() = default;
  ChunkSource(const ChunkSource&) = delete;
  ChunkSource& operator=(const ChunkSource&) = delete;
  virtual ~ChunkSource() = default;
  [[nodiscard]] virtual hsi::CubeShape shape() const = 0;
  /// Peak host bytes of the source's pixels while a run reads it: the
  /// number a memory budget admits a job against.
  [[nodiscard]] virtual std::uint64_t working_set_bytes() const = 0;
  virtual bool pass(runtime::MetricsRegistry& run,
                    const std::function<void(const ChunkView&)>& consume) = 0;
};

/// A resident cube as one zero-copy chunk per pass: its working set is the
/// cube, one chunk at depth 1.
class CubeChunkSource final : public ChunkSource {
 public:
  explicit CubeChunkSource(const hsi::ImageCube& cube) : cube_(cube) {}
  [[nodiscard]] hsi::CubeShape shape() const override {
    return {cube_.width(), cube_.height(), cube_.bands()};
  }
  [[nodiscard]] std::uint64_t working_set_bytes() const override {
    return cube_.bytes();
  }
  bool pass(runtime::MetricsRegistry& /*run*/,
            const std::function<void(const ChunkView&)>& consume) override {
    consume({0, cube_.height(), cube_.raw().data()});
    return true;
  }

 private:
  const hsi::ImageCube& cube_;
};

/// The file at `<cube_path>` (+ `.hdr`) as a chunk source streamed at
/// config's chunk_lines and queue_depth. Its working set is queue_depth
/// chunks of min(chunk_lines, lines) lines. nullptr, with a logged error,
/// on out-of-bounds geometry or a file that fails open/validation.
std::unique_ptr<ChunkSource> open_cube_file(const std::string& cube_path,
                                            const StreamingConfig& config);

/// The engine: fuse `source` on `pool` with config's pct, tiles_per_chunk,
/// plane_sink and metrics, summing the covariance in `cov_shards` shards.
/// nullopt on an I/O error or a unique set of fewer than 3 members.
std::optional<StreamingResult> fuse_chunks(ChunkSource& source,
                                           core::ThreadPool& pool,
                                           const StreamingConfig& config,
                                           int cov_shards = 1);

/// Fuse the cube at `<cube_path>` (+ `.hdr`) straight from disk on `pool`:
/// open_cube_file + fuse_chunks at one covariance shard. nullopt on
/// open/validation failure, an I/O error mid-stream or a degenerate scene.
std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              core::ThreadPool& pool,
                                              const StreamingConfig& config);

/// Convenience overload owning a transient pool of `threads`.
std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              int threads,
                                              const StreamingConfig& config);

}  // namespace rif::stream
