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

/// One recycled chunk buffer. The file source owns a fixed set of these
/// (queue_depth of them); indices circulate reader -> full queue ->
/// compute -> free queue -> reader, so allocation is bounded for the whole
/// run regardless of file size.
struct ChunkBuffer {
  int line0 = 0;
  int rows = 0;
  std::vector<float> data;         // rows * samples * bands, BIP
  std::uint64_t alloc_bytes = 0;   // bytes counted in the live total
  double read_seconds = 0.0;       // this fill's read_lines time (autotune)
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

/// Add `bytes` to `live` unless the total would pass `budget` (0 = none).
/// Every growth of the live buffer total goes through a compare-and-swap
/// like this one, so concurrent claims can never jointly overrun it.
bool claim(std::atomic<std::uint64_t>& live, std::uint64_t bytes,
           std::uint64_t budget) {
  std::uint64_t cur = live.load(std::memory_order_relaxed);
  do {
    if (budget > 0 && cur + bytes > budget) return false;
  } while (!live.compare_exchange_weak(cur, cur + bytes,
                                       std::memory_order_relaxed));
  return true;
}

/// Shrink `buf` to hold at most `bytes` (0 frees it), returning the excess
/// to the live total.
void trim(ChunkBuffer& buf, std::uint64_t bytes,
          std::atomic<std::uint64_t>& live) {
  if (buf.alloc_bytes <= bytes) return;
  live.fetch_sub(buf.alloc_bytes - bytes, std::memory_order_relaxed);
  std::vector<float>().swap(buf.data);
  buf.data.reserve(static_cast<std::size_t>(bytes / sizeof(float)));
  buf.alloc_bytes = bytes;
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
/// into recycled buffers: the reader, the buffers, the live-byte clamp and
/// the optional autotuner live across both passes.
class FileChunkSource final : public ChunkSource {
 public:
  FileChunkSource(hsi::ChunkedCubeReader reader, const StreamingConfig& config)
      : reader_(std::move(reader)) {
    // Autotuned runs start from AutotuneConfig::initial_chunk_lines (the
    // configured chunk_lines when 0); fixed runs keep the configured
    // geometry for the whole run (the atomic is then never written again).
    const int lines = reader_.lines();
    working_set_ = static_cast<std::uint64_t>(config.queue_depth) *
                   reader_.chunk_bytes(std::min(config.chunk_lines, lines));
    if (config.autotune.has_value()) {
      // Tuning reshapes chunks against depth but never outgrows the clamp,
      // which is then the working set.
      runtime::AutotuneConfig tune = *config.autotune;
      if (tune.memory_budget == 0) tune.memory_budget = working_set_;
      working_set_ = tune.memory_budget;
      memory_budget_ = tune.memory_budget;
      const int start = tune.initial_chunk_lines > 0 ? tune.initial_chunk_lines
                                                     : config.chunk_lines;
      tuner_.emplace(tune, std::min(start, lines), config.queue_depth,
                     reader_.chunk_bytes(1));
    }
    chunk_lines_.store(tuner_ ? tuner_->chunk_lines()
                              : std::min(config.chunk_lines, lines));
    // Autotuned runs allocate buffer STRUCTS up to the depth ceiling
    // (memory only materializes when a buffer circulates), so depth can
    // move live; fixed runs circulate exactly queue_depth. The ceiling
    // comes from the TUNER's clamped config, never the raw caller value:
    // an absurd AutotuneConfig::max_queue_depth must not size a real
    // allocation (the structs are cheap, a billion of them is not).
    active_depth_ = tuner_ ? tuner_->queue_depth() : config.queue_depth;
    buffers_.resize(static_cast<std::size_t>(
        tuner_ ? std::max(tuner_->max_queue_depth(), active_depth_)
               : config.queue_depth));
  }

  [[nodiscard]] hsi::CubeShape shape() const override {
    return {reader_.samples(), reader_.lines(), reader_.bands()};
  }

  [[nodiscard]] std::uint64_t working_set_bytes() const override {
    return working_set_;
  }

  [[nodiscard]] runtime::AutotuneReport autotune() const override {
    return tuner_ ? tuner_->report() : runtime::AutotuneReport{};
  }

  /// One reader pass over the file: owns the queue pair, feeds every chunk
  /// through `consume` (in ascending chunk order, on the calling thread),
  /// joins the reader and merges the pass's stall attribution into the run
  /// registry. Both engine passes run it, so stall attribution and the
  /// error path cannot diverge between them.
  ///
  /// `active_depth_` buffers circulate (the rest hold no memory). With a
  /// tuner, each consumed chunk's timing deltas feed the controller and
  /// BOTH knobs apply live, consumer-side: the new chunk_lines is published
  /// to the reader (effective from its next fill, i.e. with at most
  /// queue_depth chunks of lag), and a queue-depth move retires the
  /// just-consumed buffer (its memory is freed before the wider chunk_lines
  /// is published, so a width-for-depth trade never transiently exceeds
  /// the memory clamp) or activates an idle one.
  bool pass(runtime::MetricsRegistry& run,
            const std::function<double(const ChunkView&)>& consume) override {
    // Pass 2 starts at the converged geometry and KEEPS tuning: the
    // per-pixel transform is indifferent to chunk boundaries, so geometry
    // is pure throughput there — and its read/compute balance differs from
    // screening's, so the controller is left in the loop. The boundary is
    // declared to the tuner so the first transform epoch is never judged
    // against a screening-phase rate (a cross-kernel comparison that could
    // veto a perfectly good move).
    if (tuner_ && passes_ > 0) {
      tuner_->phase_boundary();
      chunk_lines_.store(tuner_->chunk_lines(), std::memory_order_relaxed);
      active_depth_ = tuner_->queue_depth();
    }
    ++passes_;
    RunMetrics metrics{run};
    // The free queue can hold every buffer; the full queue's capacity is
    // what is left after the slot the reader is filling and the one the
    // compute stage is draining — with active_depth_ buffers circulating,
    // in-flight memory can never exceed active_depth_ chunks.
    BoundedQueue<int> free_q(buffers_.size());
    BoundedQueue<int> full_q(buffers_.size() - 2);
    free_q.bind_metrics(run, "free_queue.");
    full_q.bind_metrics(run, "full_queue.");
    std::vector<int> idle;  // allocated structs not currently circulating
    const std::uint64_t nominal =
        reader_.chunk_bytes(chunk_lines_.load(std::memory_order_relaxed));
    for (int i = 0; i < static_cast<int>(buffers_.size()); ++i) {
      ChunkBuffer& buf = buffers_[static_cast<std::size_t>(i)];
      if (i >= active_depth_) {
        // Not part of this pass (depth shrank since the buffer last ran):
        // release its memory and drop it from the live accounting.
        trim(buf, 0, live_buffer_bytes_);
        idle.push_back(i);
      } else if (memory_budget_ > 0) {
        trim(buf, nominal, live_buffer_bytes_);
      }
    }
    // Under a budget every circulating buffer starts the pass holding a
    // claim on exactly one nominal chunk (the tuner keeps depth x nominal
    // within the budget), so no claim made mid-pass can leave a buffer
    // without room for the line its fill needs at the least.
    for (int i = 0; i < active_depth_; ++i) {
      ChunkBuffer& buf = buffers_[static_cast<std::size_t>(i)];
      if (memory_budget_ > 0 && buf.alloc_bytes < nominal &&
          claim(live_buffer_bytes_, nominal - buf.alloc_bytes,
                memory_budget_)) {
        buf.alloc_bytes = nominal;
      }
      free_q.push(i);
    }
    metrics.peak_buffer_bytes.record(static_cast<double>(
        live_buffer_bytes_.load(std::memory_order_relaxed)));

    // The reader thread runs outside the consumer's JobScope, so the job
    // id for its spans travels explicitly.
    std::atomic<bool> io_error{false};
    ReaderThread reader_thread(
        free_q, full_q, [&, trace_job = obs::current_job()] {
          read_chunks(free_q, full_q, metrics, trace_job, io_error);
        });

    double reader_stall_seen = 0.0;
    double compute_stall_seen = 0.0;
    while (const auto idx = full_q.pop()) {
      ChunkBuffer& buf = buffers_[static_cast<std::size_t>(*idx)];
      const double compute_seconds =
          consume({buf.line0, buf.rows, buf.data.data()});
      if (tuner_) {
        // Timing deltas since the previous chunk; the stall accessors take
        // the queue mutex, which at one sample per chunk is noise.
        const double reader_stall =
            free_q.pop_stall_seconds() + full_q.push_stall_seconds();
        const double compute_stall = full_q.pop_stall_seconds();
        runtime::TuneObservation obs;
        obs.read_seconds = buf.read_seconds;
        obs.reader_stall_seconds = reader_stall - reader_stall_seen;
        obs.compute_stall_seconds = compute_stall - compute_stall_seen;
        obs.compute_seconds = compute_seconds;
        obs.lines = buf.rows;
        reader_stall_seen = reader_stall;
        compute_stall_seen = compute_stall;
        tuner_->observe(obs);
        if (tuner_->queue_depth() < active_depth_) {
          // Retire the buffer we exclusively hold: free its memory FIRST,
          // then publish the (possibly wider) chunk_lines below.
          trim(buf, 0, live_buffer_bytes_);
          idle.push_back(*idx);
          --active_depth_;
          chunk_lines_.store(tuner_->chunk_lines(), std::memory_order_relaxed);
          continue;  // this index does not rejoin the free queue
        }
        // After a shrink decision, recycled buffers still carry their old
        // wider capacity. Trim the one we hold to the CURRENT nominal
        // chunk before it recirculates — otherwise the live accounting
        // stays pinned at the old width and a later depth increase would
        // stack new buffers on top of stale ones, past the memory clamp.
        const std::uint64_t now_nominal =
            reader_.chunk_bytes(chunk_lines_.load(std::memory_order_relaxed));
        trim(buf, now_nominal, live_buffer_bytes_);
        if (tuner_->queue_depth() > active_depth_ && !idle.empty() &&
            claim(live_buffer_bytes_, now_nominal, memory_budget_)) {
          // Activate read-ahead only when the ACTUAL live bytes (which may
          // still include not-yet-trimmed wide buffers) leave room for one
          // more nominal chunk — the tuner's check is against nominal
          // geometry, this one is against reality. The room is claimed for
          // the buffer now, atomically with the check, so a reader fill
          // racing this cannot take it first; the buffer allocates it on
          // its first fill.
          buffers_[static_cast<std::size_t>(idle.back())].alloc_bytes =
              now_nominal;
          metrics.peak_buffer_bytes.record(static_cast<double>(
              live_buffer_bytes_.load(std::memory_order_relaxed)));
          free_q.push(idle.back());
          idle.pop_back();
          ++active_depth_;
        }
        chunk_lines_.store(tuner_->chunk_lines(), std::memory_order_relaxed);
      }
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
      int want = std::max(
          1, std::min(chunk_lines_.load(std::memory_order_relaxed),
                      lines - line0));
      // Claim this fill's growth before allocating it. When the budget's
      // headroom cannot cover `want` lines, read fewer — never under one,
      // so the pass always progresses.
      std::uint64_t live = live_buffer_bytes_.load(std::memory_order_relaxed);
      std::uint64_t grow = 0;
      do {
        if (memory_budget_ > 0) {
          const std::uint64_t room =
              buf.alloc_bytes +
              (live < memory_budget_ ? memory_budget_ - live : 0);
          want = std::max(1, static_cast<int>(std::min<std::uint64_t>(
                                 room / reader_.chunk_bytes(1),
                                 static_cast<std::uint64_t>(want))));
        }
        const std::uint64_t needed = reader_.chunk_bytes(want);
        grow = needed > buf.alloc_bytes ? needed - buf.alloc_bytes : 0;
      } while (grow > 0 && !live_buffer_bytes_.compare_exchange_weak(
                               live, live + grow, std::memory_order_relaxed));
      if (grow > 0) {
        buf.alloc_bytes += grow;
        metrics.peak_buffer_bytes.record(static_cast<double>(live + grow));
      }
      buf.line0 = line0;
      buf.rows = want;
      // Grow to EXACTLY the claimed footprint: resize()'s geometric growth
      // would otherwise hand a widening (autotuned) chunk up to 2x its
      // nominal bytes and quietly break the memory clamp.
      const auto needed = static_cast<std::size_t>(
          reader_.chunk_bytes(buf.rows) / sizeof(float));
      if (buf.data.capacity() < needed) buf.data.reserve(needed);
      const auto t0 = clock::now();
      bool ok;
      {
        RIF_TRACE_SPAN_JOB("chunk_read", trace_job);
        ok = reader_.read_lines(line0, buf.rows, buf.data);
      }
      buf.read_seconds = seconds_since(t0);
      metrics.read_hist.observe(buf.read_seconds);
      if (!ok) {
        io_error.store(true);
        free_q.push(*idx);
        break;
      }
      metrics.bytes_read.add(reader_.chunk_bytes(buf.rows));
      metrics.chunk_bytes.record(
          static_cast<double>(reader_.chunk_bytes(buf.rows)));
      line0 += want;
      if (!full_q.push(*idx)) return;  // aborted by the consumer
    }
    full_q.close();  // end-of-stream (or I/O error): drain and stop
  }

  hsi::ChunkedCubeReader reader_;
  std::optional<runtime::ChunkAutotuner> tuner_;
  std::uint64_t working_set_ = 0;
  /// Cap on live_buffer_bytes_ (the tuner's clamp); 0 for fixed geometry,
  /// whose queue_depth buffers cannot outgrow it anyway. Every growth
  /// is claimed against it by compare-and-swap before memory is allocated,
  /// so the cap holds by construction — even when the chunk_lines a reader
  /// fill loaded is wider than what the consumer has since published and
  /// budgeted for.
  std::uint64_t memory_budget_ = 0;
  /// Lines of the NEXT chunk — reread by the reader every fill, so the
  /// tuner (on the consumer side) retunes a live pass with at most
  /// queue_depth chunks of lag.
  std::atomic<int> chunk_lines_{0};
  int active_depth_ = 0;
  std::vector<ChunkBuffer> buffers_;
  /// Live chunk-buffer bytes, held here so the accounting (and the peak
  /// gauge) spans both passes and any pass-boundary depth change. Atomic
  /// because during an autotuned pass BOTH sides move it: the reader grows
  /// it as buffers widen, the consumer claims room for a buffer it
  /// activates and shrinks it retiring/trimming buffers.
  std::atomic<std::uint64_t> live_buffer_bytes_{0};
  int passes_ = 0;
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
      const double screen_seconds = seconds_since(t0);
      metrics.screen_hist.observe(screen_seconds);
      if (traced) tracer.end("chunk_screen", trace_job);
      if (traced) tracer.begin("chunk_fold", trace_job);
      const auto t1 = clock::now();
      fused.fold(pool);
      const double fold_seconds = seconds_since(t1);
      metrics.fold_hist.observe(fold_seconds);
      if (traced) tracer.end("chunk_fold", trace_job);
      return screen_seconds + fold_seconds;
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
      const double transform_seconds = seconds_since(t0);
      metrics.transform_hist.observe(transform_seconds);
      return transform_seconds;
    };
    RIF_TRACE_SPAN_JOB("stream_pass2", trace_job);
    if (!source.pass(reg, transform_chunk)) return std::nullopt;
  }

  result.autotune = source.autotune();
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
