#include "stream/streaming_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "core/parallel/parallel_pct.h"
#include "hsi/chunked_reader.h"
#include "hsi/partition.h"
#include "linalg/stats.h"
#include "obs/span_tracer.h"
#include "runtime/chunk_geometry.h"
#include "stream/bounded_queue.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::stream {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// One recycled chunk buffer. The file source owns exactly queue_depth of
/// these; indices circulate reader -> full queue -> compute -> free queue
/// -> reader, so allocation is bounded for the whole run regardless of
/// file size.
struct ChunkBuffer {
  int line0 = 0;
  int rows = 0;
  std::vector<float> data;  // rows * samples * bands, BIP
};

/// Registry series of one run, looked up by the engine and by the file
/// source. Both record into a run-private registry; StreamingStats is
/// materialized from it afterwards, and the whole registry merges into an
/// optional long-lived one (StreamingConfig::metrics).
struct RunMetrics {
  runtime::MetricsRegistry& reg;
  runtime::Counter& chunks = reg.counter("chunks");
  runtime::Counter& bytes_read = reg.counter("bytes_read");
  runtime::Gauge& chunk_bytes =
      reg.gauge("chunk_bytes", runtime::GaugeKind::kMax);
  runtime::Gauge& peak_buffer_bytes =
      reg.gauge("peak_buffer_bytes", runtime::GaugeKind::kMax);
  runtime::Gauge& reader_stall =
      reg.gauge("reader_stall_seconds", runtime::GaugeKind::kSum);
  runtime::Gauge& compute_stall =
      reg.gauge("compute_stall_seconds", runtime::GaugeKind::kSum);
  runtime::Histogram& read_hist = reg.histogram("chunk_read_seconds");
  runtime::Histogram& screen_hist = reg.histogram("chunk_screen_seconds");
  runtime::Histogram& fold_hist = reg.histogram("chunk_fold_seconds");
  runtime::Histogram& transform_hist =
      reg.histogram("chunk_transform_seconds");
};

/// The per-job StreamingStats view over the run's registry.
StreamingStats stats_view(const runtime::MetricsRegistry& reg) {
  StreamingStats s;
  s.chunks = static_cast<int>(reg.counter_value("chunks"));
  s.bytes_read = reg.counter_value("bytes_read");
  s.chunk_bytes = static_cast<std::uint64_t>(reg.gauge_value("chunk_bytes"));
  s.peak_buffer_bytes =
      static_cast<std::uint64_t>(reg.gauge_value("peak_buffer_bytes"));
  s.reader_stall_seconds = reg.gauge_value("reader_stall_seconds");
  s.compute_stall_seconds = reg.gauge_value("compute_stall_seconds");
  const auto hist_sum = [&reg](const char* name) {
    const runtime::Histogram* h = reg.find_histogram(name);
    return h == nullptr ? 0.0 : h->sum();
  };
  s.read_seconds = hist_sum("chunk_read_seconds");
  // screen_seconds keeps its pre-registry meaning: the whole pass-1
  // compute stage, screening fan-out plus the in-order fold.
  s.screen_seconds =
      hist_sum("chunk_screen_seconds") + hist_sum("chunk_fold_seconds");
  s.transform_seconds = hist_sum("chunk_transform_seconds");
  return s;
}

/// Join-on-destruction reader thread, so an early return can never leave
/// it running against queues about to be destroyed. The reader must never
/// borrow the compute pool, or a pool blocked in pop() could starve the
/// very stage that would refill it (see bounded_queue.h).
class ReaderThread {
 public:
  ReaderThread(BoundedQueue<int>& free_q, BoundedQueue<int>& full_q,
               std::function<void()> body)
      : free_q_(free_q), full_q_(full_q), thread_(std::move(body)) {}
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;
  ~ReaderThread() { join(); }

  /// Unblock the reader if necessary and wait for it; the pass counters
  /// are stable (and safely readable) once this returns.
  void join() {
    if (!thread_.joinable()) return;
    free_q_.close();  // releases a reader blocked on a free buffer
    full_q_.close();
    thread_.join();
  }

 private:
  BoundedQueue<int>& free_q_;
  BoundedQueue<int>& full_q_;
  std::thread thread_;
};

/// A cube file, read once per engine pass by a dedicated reader thread
/// into queue_depth recycled buffers of chunk_lines lines: the reader, the
/// buffers and the live-byte total live across both passes.
class FileChunkSource final : public ChunkSource {
 public:
  FileChunkSource(hsi::ChunkedCubeReader reader, const StreamingConfig& config)
      : reader_(std::move(reader)),
        chunk_lines_(std::min(config.chunk_lines, reader_.lines())),
        buffers_(static_cast<std::size_t>(config.queue_depth)) {}

  [[nodiscard]] hsi::CubeShape shape() const override {
    return {reader_.samples(), reader_.lines(), reader_.bands()};
  }

  [[nodiscard]] std::uint64_t working_set_bytes() const override {
    return buffers_.size() * reader_.chunk_bytes(chunk_lines_);
  }

  /// One reader pass over the file: owns the queue pair, feeds every chunk
  /// through `consume` (in ascending chunk order, on the calling thread),
  /// joins the reader and merges the pass's stall attribution into the run
  /// registry. Both engine passes run it, so stall attribution and the
  /// error path cannot diverge between them.
  bool pass(runtime::MetricsRegistry& run,
            const std::function<void(const ChunkView&)>& consume) override {
    RunMetrics metrics{run};
    // The free queue can hold every buffer; the full queue's capacity is
    // what is left after the slot the reader is filling and the one the
    // compute stage is draining, so in-flight memory can never exceed
    // queue_depth chunks.
    BoundedQueue<int> free_q(buffers_.size());
    BoundedQueue<int> full_q(buffers_.size() - 2);
    free_q.bind_metrics(run, "free_queue.");
    full_q.bind_metrics(run, "full_queue.");
    for (int i = 0; i < static_cast<int>(buffers_.size()); ++i) {
      free_q.push(i);
    }

    // The reader thread runs outside the consumer's JobScope, so the job
    // id for its spans travels explicitly.
    std::atomic<bool> io_error{false};
    ReaderThread reader_thread(
        free_q, full_q, [&, trace_job = obs::current_job()] {
          read_chunks(free_q, full_q, metrics, trace_job, io_error);
        });

    while (const auto idx = full_q.pop()) {
      const ChunkBuffer& buf = buffers_[static_cast<std::size_t>(*idx)];
      consume({buf.line0, buf.rows, buf.data.data()});
      free_q.push(*idx);
    }
    reader_thread.join();
    metrics.compute_stall.record(full_q.pop_stall_seconds());
    metrics.reader_stall.record(free_q.pop_stall_seconds() +
                                full_q.push_stall_seconds());
    if (io_error.load()) {
      RIF_LOG_WARN("stream", "I/O error streaming " << reader_.path());
      return false;
    }
    return true;
  }

 private:
  /// The reader thread of one pass: fill free buffers with the next lines
  /// and hand them to the compute stage, until the file ends, an I/O error
  /// or the consumer closes the queues.
  void read_chunks(BoundedQueue<int>& free_q, BoundedQueue<int>& full_q,
                   RunMetrics& metrics, std::int64_t trace_job,
                   std::atomic<bool>& io_error) {
    obs::SpanTracer::instance().set_thread_name("stream-reader");
    const int lines = reader_.lines();
    int line0 = 0;
    while (line0 < lines) {
      const auto idx = free_q.pop();
      if (!idx) return;  // aborted by the consumer
      ChunkBuffer& buf = buffers_[static_cast<std::size_t>(*idx)];
      buf.line0 = line0;
      buf.rows = std::min(chunk_lines_, lines - line0);
      // Grow to EXACTLY this chunk: resize()'s geometric growth would give
      // a buffer first filled by the short last chunk up to twice a full
      // chunk when pass 2 refills it.
      const std::uint64_t bytes = reader_.chunk_bytes(buf.rows);
      const std::size_t held = buf.data.capacity();
      if (held * sizeof(float) < bytes) {
        buf.data.reserve(static_cast<std::size_t>(bytes / sizeof(float)));
        live_buffer_bytes_ += (buf.data.capacity() - held) * sizeof(float);
        metrics.peak_buffer_bytes.record(
            static_cast<double>(live_buffer_bytes_));
      }
      const auto t0 = clock::now();
      bool ok;
      {
        RIF_TRACE_SPAN_JOB("chunk_read", trace_job);
        ok = reader_.read_lines(line0, buf.rows, buf.data);
      }
      metrics.read_hist.observe(seconds_since(t0));
      if (!ok) {
        io_error.store(true);
        free_q.push(*idx);
        break;
      }
      metrics.bytes_read.add(bytes);
      metrics.chunk_bytes.record(static_cast<double>(bytes));
      line0 += buf.rows;
      if (!full_q.push(*idx)) return;  // aborted by the consumer
    }
    full_q.close();  // end-of-stream (or I/O error): drain and stop
  }

  hsi::ChunkedCubeReader reader_;
  const int chunk_lines_;
  std::vector<ChunkBuffer> buffers_;
  /// Bytes held by the chunk buffers, the peak gauge's source. Only the
  /// pass's reader thread moves it, and passes never overlap.
  std::uint64_t live_buffer_bytes_ = 0;
};

}  // namespace

std::unique_ptr<ChunkSource> open_cube_file(const std::string& cube_path,
                                            const StreamingConfig& config) {
  // Shared bounds with submit-time validation: zero/negative and absurdly
  // huge geometry fails the same way everywhere — a logged error, not a
  // crash or a near-cube allocation.
  if (const char* error = runtime::validate_chunk_geometry(
          config.chunk_lines, config.queue_depth)) {
    RIF_LOG_WARN("stream", "rejecting stream of " << cube_path << ": "
                                                  << error);
    return nullptr;
  }
  auto reader = hsi::ChunkedCubeReader::open(cube_path);
  if (!reader) return nullptr;
  return std::make_unique<FileChunkSource>(std::move(*reader), config);
}

std::optional<StreamingResult> fuse_chunks(ChunkSource& source,
                                           core::ThreadPool& pool,
                                           const StreamingConfig& config,
                                           int cov_shards) {
  RIF_CHECK(config.pct.output_components >= 3);
  // Ambient job id of the submitting task (the service's JobScope),
  // captured once: per-chunk spans run on pool workers and the reader
  // thread, outside that scope, so the id travels explicitly.
  const std::int64_t trace_job = obs::current_job();
  const hsi::CubeShape shape = source.shape();
  const int W = shape.width;
  const int B = shape.bands;
  const int tiles_per_chunk =
      config.tiles_per_chunk > 0 ? config.tiles_per_chunk : pool.size();

  runtime::MetricsRegistry reg;
  RunMetrics metrics{reg};
  StreamingResult result;

  // --- pass 1: screen, folded in chunk order ---------------------------------
  // Each chunk is sub-tiled exactly as partition_rows tiles a resident
  // cube, so matched tile boundaries give the same result bit for bit.
  core::FusedScreen fused(B, config.pct.screening_threshold);
  {
    const auto screen_chunk = [&](const ChunkView& chunk) {
      // Manual begin/end rather than one RAII span: screening and the
      // in-order fold are distinct trace stages of the same chunk.
      obs::SpanTracer& tracer = obs::SpanTracer::instance();
      const bool traced = tracer.enabled();
      if (traced) tracer.begin("chunk_screen", trace_job);
      const auto t0 = clock::now();
      metrics.chunks.add(1);
      fused.screen({chunk.pixels, static_cast<std::size_t>(chunk.rows) * W * B},
                   W, chunk.rows, tiles_per_chunk, pool);
      metrics.screen_hist.observe(seconds_since(t0));
      if (traced) tracer.end("chunk_screen", trace_job);
      if (traced) tracer.begin("chunk_fold", trace_job);
      const auto t1 = clock::now();
      fused.fold(pool);
      metrics.fold_hist.observe(seconds_since(t1));
      if (traced) tracer.end("chunk_fold", trace_job);
    };
    RIF_TRACE_SPAN_JOB("stream_pass1", trace_job);
    if (!source.pass(reg, screen_chunk)) return std::nullopt;
  }
  result.screen_comparisons = fused.screen_comparisons();
  result.merge_comparisons = fused.merge_comparisons();
  const core::UniqueSet& unique = fused.unique();
  result.unique_set_size = unique.size();
  // A degenerate scene is a property of the INPUT, not a program bug: fail
  // the run (caller sees nullopt and reports it) instead of aborting a
  // service that may have other jobs in flight.
  if (result.unique_set_size < 3) {
    RIF_LOG_WARN("stream", "degenerate scene: unique set has "
                               << result.unique_set_size
                               << " pixels (need >= 3)");
    return std::nullopt;
  }

  // --- barrier: mean, `cov_shards` covariance sums, eigen-solve --------------
  result.mean = unique.mean();
  core::BarrierResult barrier;
  {
    RIF_TRACE_SPAN_JOB("stream_eigen", trace_job);
    // Contiguous member ranges, as the distributed manager shards them,
    // summed concurrently; the barrier merges them in shard order.
    const auto ranges = hsi::partition_range(
        static_cast<std::int64_t>(unique.size()), cov_shards);
    std::vector<linalg::CovarianceAccumulator> sums(
        ranges.size(), linalg::CovarianceAccumulator(B, result.mean));
    pool.parallel_tasks(static_cast<int>(sums.size()), [&](int s) {
      sums[s].add_rows(unique.flat().data() + ranges[s].begin * B,
                       static_cast<std::uint64_t>(ranges[s].size()));
    });
    barrier = core::manager_barrier(sums, config.pct.output_components);
  }
  result.eigenvalues = barrier.eigen.values;
  result.eigenvectors = barrier.eigen.vectors;

  // --- pass 2: blocked transform + colour map --------------------------------
  const core::Projection& projection = barrier.projection;
  const int comps = projection.matrix.rows();
  result.composite = hsi::RgbImage(W, shape.height);
  std::vector<float> plane_chunk;  // one chunk of components, when sunk
  {
    const auto transform_chunk = [&](const ChunkView& chunk) {
      obs::ScopedSpan transform_span("chunk_transform", trace_job);
      const auto t0 = clock::now();
      const std::int64_t count = static_cast<std::int64_t>(chunk.rows) * W;
      const std::int64_t first_flat =
          static_cast<std::int64_t>(chunk.line0) * W;
      float* planes = nullptr;
      if (config.plane_sink) {
        plane_chunk.resize(static_cast<std::size_t>(count) * comps);
        planes = plane_chunk.data();
      }
      // The same row tiles as pass 1 screened, one task each.
      const auto tiles =
          hsi::partition_rows({W, chunk.rows, B}, tiles_per_chunk);
      pool.parallel_tasks(static_cast<int>(tiles.size()), [&](int i) {
        const std::int64_t lo = tiles[i].first_flat_index();
        core::transform_and_map_chunk(
            chunk.pixels + lo * B, tiles[i].pixels(), projection,
            planes != nullptr ? planes + lo * comps : nullptr,
            result.composite.data.data() + (first_flat + lo) * 3);
      });
      if (config.plane_sink) {
        config.plane_sink(first_flat, count, comps, planes);
      }
      metrics.transform_hist.observe(seconds_since(t0));
    };
    RIF_TRACE_SPAN_JOB("stream_pass2", trace_job);
    if (!source.pass(reg, transform_chunk)) return std::nullopt;
  }

  result.stats = stats_view(reg);
  if (config.metrics != nullptr) {
    reg.merge_into(*config.metrics, config.metrics_prefix);
  }
  return result;
}

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              core::ThreadPool& pool,
                                              const StreamingConfig& config) {
  const std::unique_ptr<ChunkSource> source = open_cube_file(cube_path, config);
  if (source == nullptr) return std::nullopt;
  return fuse_chunks(*source, pool, config);
}

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              int threads,
                                              const StreamingConfig& config) {
  core::ThreadPool pool(threads);
  return fuse_streaming(cube_path, pool, config);
}

}  // namespace rif::stream
