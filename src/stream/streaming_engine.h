// Out-of-core streaming fusion: fuse a cube straight from disk in bounded
// memory, overlapping I/O with compute.
//
// Every other engine in the repo (sequential fuse, the shared-memory
// engine, the distributed actors) needs the whole hyper-spectral cube
// resident before the first pixel is screened — scene size is capped at
// RAM and load time serializes in front of compute. This engine is the
// pipelined data-flow answer: a dedicated reader thread pulls chunks of
// `chunk_lines` image lines through a ChunkedCubeReader into a fixed pool
// of recycled buffers and hands them to the compute stage over a
// BoundedQueue, whose capacity is the backpressure that keeps in-flight
// memory at `queue_depth` chunk buffers — never the cube — while read-
// ahead (double-buffered prefetch at queue_depth >= 3) hides disk latency
// behind screening.
//
// The algorithm is the shared-memory engine's, restructured around the
// statistics barrier that out-of-core PCA cannot avoid (eigenvectors need
// the full covariance before any pixel can be transformed):
//
//   pass 1  reader -> [BoundedQueue] -> core::FusedScreen per chunk: the
//           chunk is sub-tiled across the pool, each sub-tile screened
//           into its unique set, then folded in chunk order — the same
//           class core::fuse_parallel runs over the resident cube;
//   barrier mean and one-shard covariance of the merged unique set (held
//           in memory, so no extra disk pass), Jacobi eigen-solve;
//   pass 2  reader (re-streams the file) -> blocked SIMD transform +
//           colour map per chunk, writing output chunks: composite bytes
//           land in place, component planes go to an optional per-chunk
//           sink instead of ever materializing whole planes.
//
// Contract: the streamed run is byte-identical to core::fuse_parallel at
// matched tile boundaries (chunk_lines x tiles_per_chunk aligned with
// ParallelPctConfig::tiles) and one covariance shard: composite bytes,
// unique set, eigenvalues, mean and comparison counts — asserted in
// tests/stream_test.cc.
//
// Deadlock safety with the help-while-waiting ThreadPool: the reader runs
// on its own std::thread and never touches the pool, so the compute stage
// may block on the queue (it parks, it does not help) yet always gets its
// next chunk; nested parallel_for/parallel_tasks inside compute stay
// deadlock-free on any pool size, including 1 (regression-tested).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel/thread_pool.h"
#include "core/pct.h"
#include "runtime/autotuner.h"
#include "runtime/metrics.h"

namespace rif::stream {

struct StreamingConfig {
  core::PctConfig pct;

  /// Image lines per chunk. The unit of I/O, of screening-fold granularity
  /// and of memory budgeting: peak buffer memory is
  /// queue_depth x chunk_lines x samples x bands x 4 bytes. Bounds shared
  /// with submit-time validation (runtime/chunk_geometry.h); out-of-bounds
  /// values fail the run with a logged error. With `autotune` set this is
  /// only the starting point.
  int chunk_lines = 64;

  /// Total chunk buffers in flight (>= 3): one filling at the reader, one
  /// draining at the compute stage, the rest queued between them as
  /// read-ahead. This bounds the engine's buffer footprint — backpressure
  /// from the full queue throttles the reader when compute falls behind.
  int queue_depth = 4;

  /// Adaptive chunk geometry: when set, a runtime::ChunkAutotuner retunes
  /// chunk_lines BETWEEN CHUNKS of pass 1 from the live stall series
  /// (grow while reader-stalled, shrink while compute-stalled, hysteresis
  /// and memory clamp — see runtime/autotuner.h) and queue_depth at the
  /// pass boundary; pass 2 runs at the converged geometry. The tuned
  /// trajectory lands in StreamingResult::autotune. Chunk boundaries then
  /// differ from any fixed-geometry run, so the unique set matches no
  /// in-memory tiling — the composite is still a valid fusion within the
  /// usual cross-tiling variation.
  std::optional<runtime::AutotuneConfig> autotune;

  /// Optional long-lived registry (e.g. the FusionService's): the run's
  /// private series are folded in under `metrics_prefix` when the run
  /// succeeds — counters add, max-gauges max, histograms merge — so
  /// concurrent jobs aggregate instead of clobbering each other.
  runtime::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "stream.";

  /// Screening sub-tiles per chunk (the compute stage's parallelism);
  /// 0 = pool size. Chunk x sub-tile boundaries define the screening fold
  /// order, exactly like ParallelPctConfig::tiles: choose
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

/// Per-stage observability of one streamed run. Stall seconds tell the
/// bottleneck story without a profiler: reader_stall ~ backpressure
/// (compute-bound), compute_stall ~ starvation (I/O-bound).
///
/// Since the adaptive-runtime PR this struct is a VIEW: the engine
/// records everything into a per-run runtime::MetricsRegistry (per-chunk
/// read/screen/fold/transform latency histograms, stall gauges, queue
/// series) and materializes these fields from it at the end of the run —
/// the registry is the source of truth, this is the stable per-job
/// summary shape JobRecord::stream carries.
struct StreamingStats {
  int chunks = 0;                 ///< chunks consumed in pass 1
  std::uint64_t bytes_read = 0;   ///< file bytes read (both passes)
  /// Largest BIP chunk read — the full-size buffer for fixed geometry,
  /// the widest tuned chunk for autotuned runs.
  std::uint64_t chunk_bytes = 0;
  /// High-water of live chunk-buffer bytes — the engine's whole variable
  /// footprint besides the unique set and the output image. Bounded by
  /// queue_depth x chunk_bytes by construction.
  std::uint64_t peak_buffer_bytes = 0;
  double read_seconds = 0.0;     ///< reader thread inside read_lines
  double reader_stall_seconds = 0.0;   ///< reader blocked (backpressure)
  double compute_stall_seconds = 0.0;  ///< compute blocked (starved)
  double screen_seconds = 0.0;     ///< compute stage, pass 1 (excl. stalls)
  double transform_seconds = 0.0;  ///< compute stage, pass 2 (excl. stalls)
};

/// What fuse() returns, minus whole-cube artifacts: component_planes
/// stays empty — the planes are streamed to StreamingConfig::plane_sink
/// instead of stored.
struct StreamingResult : core::PctResult {
  StreamingStats stats;
  /// Tuned trajectory of this run (enabled == false when the run used
  /// fixed geometry).
  runtime::AutotuneReport autotune;
};

/// Fuse the cube at `<cube_path>` (+ `.hdr`) straight from disk on
/// `pool`. nullopt on open/validation failure or an I/O error mid-stream.
std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              core::ThreadPool& pool,
                                              const StreamingConfig& config);

/// Convenience overload owning a transient pool of `threads`.
std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              int threads,
                                              const StreamingConfig& config);

}  // namespace rif::stream
