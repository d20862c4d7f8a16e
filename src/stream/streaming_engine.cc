#include "stream/streaming_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "core/parallel/parallel_pct.h"
#include "hsi/chunked_reader.h"
#include "linalg/jacobi_eig.h"
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

/// One recycled chunk buffer. The engine owns a fixed set of these
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

/// Registry series of one streamed run, looked up once. The engine always
/// records into a run-private registry; StreamingStats is materialized
/// from it afterwards, and the whole registry merges into an optional
/// long-lived one (StreamingConfig::metrics).
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

/// Shared state of one reader pass. The reader is a dedicated std::thread:
/// it must never borrow the compute pool, or a pool blocked in pop() could
/// starve the very stage that would refill it (see bounded_queue.h).
struct ReaderPass {
  hsi::ChunkedCubeReader* reader = nullptr;
  std::vector<ChunkBuffer>* buffers = nullptr;
  BoundedQueue<int>* free_q = nullptr;
  BoundedQueue<int>* full_q = nullptr;
  /// Lines of the NEXT chunk — reread every iteration, so the autotuner
  /// (on the consumer side) retunes a live pass with at most queue_depth
  /// chunks of lag.
  const std::atomic<int>* chunk_lines = nullptr;
  RunMetrics* metrics = nullptr;
  /// Live chunk-buffer bytes, owned by the engine so it survives (and the
  /// peak gauge spans) both passes and any pass-boundary depth change.
  /// Atomic because during an autotuned pass BOTH sides move it: the
  /// reader grows it as buffers widen, the consumer claims room for a
  /// buffer it activates and shrinks it retiring/trimming buffers.
  std::atomic<std::uint64_t>* live_buffer_bytes = nullptr;
  /// Cap on live_buffer_bytes; 0 = none. Every growth is claimed against
  /// it by compare-and-swap before memory is allocated, so the cap holds by
  /// construction — even when the chunk_lines this reader loaded is wider
  /// than what the consumer has since published and budgeted for.
  std::uint64_t memory_budget = 0;
  /// Job attribution for the reader thread's spans — the reader runs
  /// outside the consumer's JobScope, so the id travels explicitly.
  std::int64_t trace_job = obs::kNoJob;
  std::atomic<bool> io_error{false};

  void run() {
    obs::SpanTracer::instance().set_thread_name("stream-reader");
    const int lines = reader->lines();
    int line0 = 0;
    while (line0 < lines) {
      const auto idx = free_q->pop();
      if (!idx) return;  // aborted by the consumer
      ChunkBuffer& buf = (*buffers)[static_cast<std::size_t>(*idx)];
      int want = std::max(
          1, std::min(chunk_lines->load(std::memory_order_relaxed),
                      lines - line0));
      // Claim this fill's growth before allocating it. When the budget's
      // headroom cannot cover `want` lines, read fewer — never under one,
      // so the pass always progresses.
      std::uint64_t live = live_buffer_bytes->load(std::memory_order_relaxed);
      std::uint64_t grow = 0;
      do {
        if (memory_budget > 0) {
          const std::uint64_t room =
              buf.alloc_bytes +
              (live < memory_budget ? memory_budget - live : 0);
          want = std::max(1, static_cast<int>(std::min<std::uint64_t>(
                                 room / reader->chunk_bytes(1),
                                 static_cast<std::uint64_t>(want))));
        }
        const std::uint64_t needed = reader->chunk_bytes(want);
        grow = needed > buf.alloc_bytes ? needed - buf.alloc_bytes : 0;
      } while (grow > 0 && !live_buffer_bytes->compare_exchange_weak(
                               live, live + grow, std::memory_order_relaxed));
      if (grow > 0) {
        buf.alloc_bytes += grow;
        metrics->peak_buffer_bytes.record(static_cast<double>(live + grow));
      }
      buf.line0 = line0;
      buf.rows = want;
      // Grow to EXACTLY the claimed footprint: resize()'s geometric growth
      // would otherwise hand a widening (autotuned) chunk up to 2x its
      // nominal bytes and quietly break the memory clamp.
      const auto needed = static_cast<std::size_t>(
          reader->chunk_bytes(buf.rows) / sizeof(float));
      if (buf.data.capacity() < needed) buf.data.reserve(needed);
      const auto t0 = clock::now();
      bool ok;
      {
        RIF_TRACE_SPAN_JOB("chunk_read", trace_job);
        ok = reader->read_lines(line0, buf.rows, buf.data);
      }
      buf.read_seconds = seconds_since(t0);
      metrics->read_hist.observe(buf.read_seconds);
      if (!ok) {
        io_error.store(true);
        free_q->push(*idx);
        break;
      }
      metrics->bytes_read.add(reader->chunk_bytes(buf.rows));
      metrics->chunk_bytes.record(
          static_cast<double>(reader->chunk_bytes(buf.rows)));
      line0 += want;
      if (!full_q->push(*idx)) return;  // aborted by the consumer
    }
    full_q->close();  // end-of-stream (or I/O error): drain and stop
  }
};

/// Join-on-destruction wrapper so an early return (I/O error, degenerate
/// scene CHECK) can never leave the reader thread running against queues
/// about to be destroyed.
class ReaderThread {
 public:
  explicit ReaderThread(ReaderPass& pass)
      : pass_(pass), thread_([&pass] { pass.run(); }) {}
  ~ReaderThread() { join(); }

  /// Unblock the reader if necessary and wait for it; the pass counters
  /// are stable (and safely readable) once this returns.
  void join() {
    if (!thread_.joinable()) return;
    pass_.free_q->close();  // releases a reader blocked on a free buffer
    pass_.full_q->close();
    thread_.join();
  }

 private:
  ReaderPass& pass_;
  std::thread thread_;
};

/// One full reader pass over the file: owns the queue pair, feeds every
/// chunk through `consume` (in ascending chunk order, on the calling
/// thread; returns its compute seconds for that chunk), joins the reader
/// and merges the pass's stall attribution into the run registry. Returns
/// false on a mid-pass I/O error. Shared by both pipeline passes so stall
/// attribution and the error path cannot diverge between them.
///
/// `active_depth` buffers of `buffers` circulate (the rest hold no
/// memory). When `tuner` is set, each consumed chunk's timing deltas feed
/// the controller and BOTH knobs apply live, consumer-side: the new
/// chunk_lines is published to the reader (effective from its next fill,
/// i.e. with at most queue_depth chunks of lag), and a queue-depth move
/// retires the just-consumed buffer (its memory is freed before the wider
/// chunk_lines is published, so a width-for-depth trade never transiently
/// exceeds the memory clamp) or activates an idle one.
bool run_reader_pass(hsi::ChunkedCubeReader& reader,
                     std::vector<ChunkBuffer>& buffers,
                     std::atomic<int>& chunk_lines, RunMetrics& metrics,
                     std::atomic<std::uint64_t>& live_buffer_bytes,
                     int& active_depth,
                     std::uint64_t memory_budget,
                     runtime::ChunkAutotuner* tuner, std::int64_t trace_job,
                     const std::function<double(const ChunkBuffer&)>& consume) {
  // The free queue can hold every buffer; the full queue's capacity is
  // what is left after the slot the reader is filling and the one the
  // compute stage is draining — with active_depth buffers circulating,
  // in-flight memory can never exceed active_depth chunks.
  BoundedQueue<int> free_q(buffers.size());
  BoundedQueue<int> full_q(buffers.size() - 2);
  free_q.bind_metrics(metrics.reg, "free_queue.");
  full_q.bind_metrics(metrics.reg, "full_queue.");
  std::vector<int> idle;  // allocated structs not currently circulating
  const std::uint64_t nominal =
      reader.chunk_bytes(chunk_lines.load(std::memory_order_relaxed));
  for (int i = 0; i < static_cast<int>(buffers.size()); ++i) {
    ChunkBuffer& buf = buffers[static_cast<std::size_t>(i)];
    if (i >= active_depth) {
      // Not part of this pass (depth shrank since the buffer last ran):
      // release its memory and drop it from the live accounting.
      trim(buf, 0, live_buffer_bytes);
      idle.push_back(i);
    } else if (memory_budget > 0) {
      trim(buf, nominal, live_buffer_bytes);
    }
  }
  // Under a budget every circulating buffer starts the pass holding a claim
  // on exactly one nominal chunk (the tuner keeps depth x nominal within
  // the budget), so no claim made mid-pass can leave a buffer without room
  // for the line its fill needs at the least.
  for (int i = 0; i < active_depth; ++i) {
    ChunkBuffer& buf = buffers[static_cast<std::size_t>(i)];
    if (memory_budget > 0 && buf.alloc_bytes < nominal &&
        claim(live_buffer_bytes, nominal - buf.alloc_bytes, memory_budget)) {
      buf.alloc_bytes = nominal;
    }
    free_q.push(i);
  }
  metrics.peak_buffer_bytes.record(
      static_cast<double>(live_buffer_bytes.load(std::memory_order_relaxed)));

  ReaderPass pass;
  pass.reader = &reader;
  pass.buffers = &buffers;
  pass.free_q = &free_q;
  pass.full_q = &full_q;
  pass.chunk_lines = &chunk_lines;
  pass.metrics = &metrics;
  pass.live_buffer_bytes = &live_buffer_bytes;
  pass.memory_budget = memory_budget;
  pass.trace_job = trace_job;
  ReaderThread reader_thread(pass);

  double reader_stall_seen = 0.0;
  double compute_stall_seen = 0.0;
  while (const auto idx = full_q.pop()) {
    ChunkBuffer& buf = buffers[static_cast<std::size_t>(*idx)];
    const double compute_seconds = consume(buf);
    if (tuner != nullptr) {
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
      tuner->observe(obs);
      if (tuner->queue_depth() < active_depth) {
        // Retire the buffer we exclusively hold: free its memory FIRST,
        // then publish the (possibly wider) chunk_lines below.
        trim(buf, 0, live_buffer_bytes);
        idle.push_back(*idx);
        --active_depth;
        chunk_lines.store(tuner->chunk_lines(), std::memory_order_relaxed);
        continue;  // this index does not rejoin the free queue
      }
      // After a shrink decision, recycled buffers still carry their old
      // wider capacity. Trim the one we hold to the CURRENT nominal
      // chunk before it recirculates — otherwise the live accounting
      // stays pinned at the old width and a later depth increase would
      // stack new buffers on top of stale ones, past the memory clamp.
      const std::uint64_t now_nominal =
          reader.chunk_bytes(chunk_lines.load(std::memory_order_relaxed));
      trim(buf, now_nominal, live_buffer_bytes);
      if (tuner->queue_depth() > active_depth && !idle.empty() &&
          claim(live_buffer_bytes, now_nominal, memory_budget)) {
        // Activate read-ahead only when the ACTUAL live bytes (which may
        // still include not-yet-trimmed wide buffers) leave room for one
        // more nominal chunk — the tuner's check is against nominal
        // geometry, this one is against reality. The room is claimed for
        // the buffer now, atomically with the check, so a reader fill
        // racing this cannot take it first; the buffer allocates it on its
        // first fill.
        buffers[static_cast<std::size_t>(idle.back())].alloc_bytes =
            now_nominal;
        metrics.peak_buffer_bytes.record(static_cast<double>(
            live_buffer_bytes.load(std::memory_order_relaxed)));
        free_q.push(idle.back());
        idle.pop_back();
        ++active_depth;
      }
      chunk_lines.store(tuner->chunk_lines(), std::memory_order_relaxed);
    }
    free_q.push(*idx);
  }
  reader_thread.join();
  metrics.compute_stall.record(full_q.pop_stall_seconds());
  metrics.reader_stall.record(free_q.pop_stall_seconds() +
                              full_q.push_stall_seconds());
  return !pass.io_error.load();
}

}  // namespace

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              core::ThreadPool& pool,
                                              const StreamingConfig& config) {
  RIF_CHECK(config.pct.output_components >= 3);
  // Shared bounds with submit-time validation: zero/negative and absurdly
  // huge geometry fails the same way everywhere — a logged error, not a
  // crash or a near-cube allocation.
  if (const char* error = runtime::validate_chunk_geometry(
          config.chunk_lines, config.queue_depth)) {
    RIF_LOG_WARN("stream", "rejecting stream of " << cube_path << ": "
                                                  << error);
    return std::nullopt;
  }
  auto reader = hsi::ChunkedCubeReader::open(cube_path);
  if (!reader) return std::nullopt;

  // Ambient job id of the submitting task (the service's JobScope),
  // captured once: per-chunk spans run on pool workers and the reader
  // thread, outside that scope, so the id travels explicitly.
  const std::int64_t trace_job = obs::current_job();

  const int W = reader->samples();
  const int H = reader->lines();
  const int B = reader->bands();
  const int tiles_per_chunk =
      config.tiles_per_chunk > 0 ? config.tiles_per_chunk : pool.size();

  runtime::MetricsRegistry reg;
  RunMetrics metrics{reg};
  std::atomic<std::uint64_t> live_buffer_bytes{0};

  // Autotuned runs start from AutotuneConfig::initial_chunk_lines (the
  // configured chunk_lines when 0); fixed runs keep the configured
  // geometry for the whole run (the atomic is then never written again).
  std::optional<runtime::ChunkAutotuner> tuner;
  if (config.autotune.has_value()) {
    const int start = config.autotune->initial_chunk_lines > 0
                          ? config.autotune->initial_chunk_lines
                          : config.chunk_lines;
    tuner.emplace(*config.autotune, std::min(start, H), config.queue_depth,
                  static_cast<std::uint64_t>(W) * B * sizeof(float));
  }
  std::atomic<int> chunk_lines{
      tuner ? tuner->chunk_lines() : std::min(config.chunk_lines, H)};
  // Autotuned runs allocate buffer STRUCTS up to the depth ceiling (memory
  // only materializes when a buffer circulates), so depth can move live;
  // fixed runs circulate exactly queue_depth.
  int active_depth = tuner ? tuner->queue_depth() : config.queue_depth;
  // Ceiling from the TUNER's clamped config, never the raw caller value:
  // an absurd AutotuneConfig::max_queue_depth must not size a real
  // allocation (the structs are cheap, a billion of them is not).
  const int max_depth =
      tuner ? std::max(tuner->max_queue_depth(), active_depth)
            : config.queue_depth;
  std::vector<ChunkBuffer> buffers(static_cast<std::size_t>(max_depth));

  StreamingResult result;

  // --- pass 1: screen + moment sums, folded in chunk order ------------------
  // Each chunk is sub-tiled exactly as the in-memory driver tiles the cube,
  // so matched tile boundaries give that driver's result bit for bit.
  core::FusedScreen fused(B, config.pct.screening_threshold);
  {
    const auto screen_chunk = [&](const ChunkBuffer& buf) {
      // Manual begin/end rather than one RAII span: screening and the
      // in-order fold are distinct trace stages of the same chunk.
      obs::SpanTracer& tracer = obs::SpanTracer::instance();
      const bool traced = tracer.enabled();
      if (traced) tracer.begin("chunk_screen", trace_job);
      const auto t0 = clock::now();
      metrics.chunks.add(1);
      fused.screen(buf.data, W, buf.rows, tiles_per_chunk, pool);
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
    if (!run_reader_pass(*reader, buffers, chunk_lines, metrics,
                         live_buffer_bytes, active_depth,
                         tuner ? config.autotune->memory_budget : 0,
                         tuner ? &*tuner : nullptr, trace_job,
                         screen_chunk)) {
      RIF_LOG_WARN("stream", "I/O error streaming " << cube_path);
      return std::nullopt;
    }
  }
  result.screen_comparisons = fused.screen_comparisons();
  result.merge_comparisons = fused.merge_comparisons();
  result.unique_set_size = fused.unique_set_size();
  // A degenerate scene is a property of the INPUT, not a program bug: fail
  // the job (caller sees nullopt and reports it) instead of aborting a
  // service that may have other jobs in flight.
  if (result.unique_set_size < 3) {
    RIF_LOG_WARN("stream", "degenerate scene in "
                               << cube_path << ": unique set has "
                               << result.unique_set_size
                               << " pixels (need >= 3)");
    return std::nullopt;
  }

  // --- barrier: statistics + eigen-solve -------------------------------------
  result.mean = fused.mean();
  linalg::EigenResult eig;
  {
    RIF_TRACE_SPAN_JOB("stream_eigen", trace_job);
    eig = linalg::jacobi_eigen(fused.covariance(), config.pct.jacobi);
  }
  result.eigenvalues = eig.values;
  result.eigenvectors = eig.vectors;
  result.jacobi_sweeps = eig.sweeps;

  // Pass 2 starts at the converged geometry and KEEPS tuning: the
  // per-pixel transform is indifferent to chunk boundaries, so geometry is
  // pure throughput there — and its read/compute balance differs from
  // screening's, so the controller is left in the loop. The boundary is
  // declared to the tuner so the first transform epoch is never judged
  // against a screening-phase rate (a cross-kernel comparison that could
  // veto a perfectly good move).
  if (tuner) {
    tuner->phase_boundary();
    chunk_lines.store(tuner->chunk_lines(), std::memory_order_relaxed);
    active_depth = tuner->queue_depth();
  }

  // --- pass 2: streamed blocked transform + colour map -----------------------
  const linalg::Matrix t =
      core::transform_matrix(eig.vectors, config.pct.output_components);
  const std::vector<double> bias = core::projection_bias(t, result.mean);
  const auto scales = core::scales_from_eigenvalues(eig.values);
  const int comps = t.rows();
  result.composite = hsi::RgbImage(W, H);
  std::vector<float> plane_chunk;  // one chunk of components, when sunk
  {
    const auto transform_chunk = [&](const ChunkBuffer& buf) {
      obs::ScopedSpan transform_span("chunk_transform", trace_job);
      const auto t0 = clock::now();
      const std::int64_t count = static_cast<std::int64_t>(buf.rows) * W;
      const std::int64_t first_flat =
          static_cast<std::int64_t>(buf.line0) * W;
      float* planes = nullptr;
      if (config.plane_sink) {
        plane_chunk.resize(static_cast<std::size_t>(count) * comps);
        planes = plane_chunk.data();
      }
      pool.parallel_for(count, [&](std::int64_t lo, std::int64_t hi) {
        core::transform_and_map_chunk(
            buf.data.data() + lo * B, hi - lo, t, bias, scales,
            planes != nullptr ? planes + lo * comps : nullptr,
            result.composite, first_flat + lo);
      });
      if (config.plane_sink) {
        config.plane_sink(first_flat, count, comps, planes);
      }
      const double transform_seconds = seconds_since(t0);
      metrics.transform_hist.observe(transform_seconds);
      return transform_seconds;
    };
    RIF_TRACE_SPAN_JOB("stream_pass2", trace_job);
    if (!run_reader_pass(*reader, buffers, chunk_lines, metrics,
                         live_buffer_bytes, active_depth,
                         tuner ? config.autotune->memory_budget : 0,
                         tuner ? &*tuner : nullptr, trace_job,
                         transform_chunk)) {
      RIF_LOG_WARN("stream", "I/O error streaming " << cube_path);
      return std::nullopt;
    }
  }

  if (tuner) result.autotune = tuner->report();
  result.stats = stats_view(reg);
  if (config.metrics != nullptr) {
    reg.merge_into(*config.metrics, config.metrics_prefix);
  }
  return result;
}

std::optional<StreamingResult> fuse_streaming(const std::string& cube_path,
                                              int threads,
                                              const StreamingConfig& config) {
  core::ThreadPool pool(threads);
  return fuse_streaming(cube_path, pool, config);
}

}  // namespace rif::stream
