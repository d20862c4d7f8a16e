// SpanTracer — low-overhead wall-clock tracing of real job execution.
//
// The MetricsRegistry answers "how much / how many"; this answers "where
// did job 17's 900 ms go". Instrumented code emits begin/end/instant span
// events (plus counter samples) carrying a job id; the service registers
// job -> tenant once at submission, so every span in the export is
// attributed without the hot path ever touching a string.
//
// ## Two timelines, one trace
//
// The service is half simulation, half real machine: admission and queue
// wait play out on the VIRTUAL timeline (sim nanoseconds) while host-pool
// execution — chunk reads, screening, folds, transforms — runs on real
// threads under the wall clock. Both kinds of event land in the same
// tracer, tagged with a Timeline, and the Chrome-trace exporter
// (obs/chrome_trace.h) emits them as two processes of one trace:
// pid "rif-host" with one track per real thread, pid "rif-service" with
// one track per job. Perfetto / chrome://tracing loads the file directly.
//
// ## Hot-path design
//
// Per-thread buffers, lock-free on the emission path: each thread owns a
// chain of fixed-size event blocks; an append is one bounds check, one
// 48-byte store and one release-store of the block's count. The only
// locks are per-thread block allocation (every kBlockEvents events) and
// the registry mutex on first use of a thread. Disabled tracing costs a
// single relaxed atomic load per RIF_TRACE_SPAN site — cheap enough to
// leave the macros in the per-chunk and per-tile paths permanently.
//
// Buffers are drained by collect(), which takes the per-thread mutex only
// to pin the block list; concurrently emitted events are either fully
// visible (count published with release) or not yet part of the snapshot.
// clear() requires quiescence (no concurrent emission) — flip enabled off
// first, which stops every RIF_TRACE_* site at its entry check.
//
// Span names must be string literals (or otherwise outlive the tracer):
// events store the pointer, never a copy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rif::obs {

/// Which clock an event's timestamp belongs to.
enum class Timeline : std::uint8_t {
  kWall = 0,     ///< steady_clock ns since tracer construction; tid = thread
  kVirtual = 1,  ///< simulation ns since t=0; tid = job id (one track/job)
};

enum class Phase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
  kCounter = 'C',
};

/// No job attribution.
inline constexpr std::int64_t kNoJob = -1;
/// Sentinel default: resolve to the thread's current JobScope.
inline constexpr std::int64_t kCurrentJob = INT64_MIN;

struct SpanEvent {
  const char* name = nullptr;  ///< static-lifetime string
  std::uint64_t ts_ns = 0;
  std::int64_t job = kNoJob;
  double value = 0.0;  ///< kCounter only
  std::int32_t tid = 0;
  Timeline timeline = Timeline::kWall;
  Phase phase = Phase::kInstant;
};

/// The thread's ambient job attribution (see JobScope); kNoJob outside any
/// scope. Spans default to it, and engines capture it once at entry to
/// attribute work they hand to other threads (e.g. the streaming reader).
[[nodiscard]] std::int64_t current_job();

class SpanTracer {
 public:
  static constexpr std::size_t kBlockEvents = 4096;

  /// Process-wide tracer. Never destroyed (worker threads may emit during
  /// static teardown).
  static SpanTracer& instance();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Wall timestamp: steady-clock ns since tracer construction.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Raw steady-clock ns at construction — the zero point of every kWall
  /// timestamp. Remote telemetry uses it to map a peer's absolute
  /// steady-clock timestamps (offset-corrected) onto this tracer's axis.
  [[nodiscard]] std::uint64_t epoch_ns() const { return epoch_ns_; }

  // --- wall-clock emission (tid = calling thread) --------------------------
  // `job` defaults to the thread's JobScope. Emission is a no-op while
  // disabled (the RAII/macro layer additionally pre-checks enabled()) —
  // EXCEPT end(), which always records so a span begun before tracing was
  // flipped off still closes; only call end() for a begin() you emitted.
  void begin(const char* name, std::int64_t job = kCurrentJob);
  void end(const char* name, std::int64_t job = kCurrentJob);
  void instant(const char* name, std::int64_t job = kCurrentJob);
  void counter(const char* name, double value, std::int64_t job = kCurrentJob);

  // --- virtual-timeline emission (explicit track + timestamp) --------------
  // The simulation thread stamps events with virtual time; `track` is the
  // exported tid (the service uses the job id, giving one lifecycle lane
  // per job).
  void virtual_begin(const char* name, std::int32_t track,
                     std::uint64_t vt_ns, std::int64_t job = kNoJob);
  void virtual_end(const char* name, std::int32_t track, std::uint64_t vt_ns,
                   std::int64_t job = kNoJob);
  void virtual_instant(const char* name, std::int32_t track,
                       std::uint64_t vt_ns, std::int64_t job = kNoJob);

  /// Register job -> tenant for export-time attribution (idempotent;
  /// cheap, mutex-protected — call once per job, not per event).
  void set_job_tenant(std::int64_t job, const std::string& tenant);

  /// Name the calling thread's track in the export ("reader", ...).
  void set_thread_name(const std::string& name);

  /// Snapshot every thread's events, in per-thread emission order (buffers
  /// concatenated in thread-registration order). Safe concurrently with
  /// emission: an in-flight event is either fully included or absent.
  [[nodiscard]] std::vector<SpanEvent> collect() const;

  [[nodiscard]] std::map<std::int64_t, std::string> job_tenants() const;
  [[nodiscard]] std::map<std::int32_t, std::string> thread_names() const;

  /// Events dropped because a thread hit kMaxBlocksPerThread.
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// Discard all recorded events (thread buffers stay registered, job and
  /// thread names are kept). Callers must guarantee no concurrent
  /// emission — disable first.
  void clear();

 private:
  struct EventBlock {
    std::array<SpanEvent, kBlockEvents> events;
    std::atomic<std::size_t> count{0};
  };
  struct ThreadBuffer {
    std::int32_t tid = 0;
    /// Guards the block LIST (allocation, collect, clear) — never the
    /// event append itself.
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<EventBlock>> blocks;
    EventBlock* current = nullptr;  ///< last entry of blocks
    std::atomic<std::uint64_t> dropped{0};
  };

  SpanTracer();
  void emit(SpanEvent e);
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  /// Per-thread buffer cap in blocks (1M events): bounds trace memory on
  /// runaway instrumentation; excess events are counted dropped.
  static constexpr std::size_t kMaxBlocksPerThread = 256;
  std::uint64_t epoch_ns_ = 0;                // steady_clock at construction

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::int64_t, std::string> job_tenants_;
  std::map<std::int32_t, std::string> thread_names_;
};

/// RAII begin/end pair. Captures enabled() once at entry, so a span open
/// when tracing is flipped off still emits its end (no dangling begins).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t job = kCurrentJob) {
    SpanTracer& t = SpanTracer::instance();
    if (t.enabled()) {
      name_ = name;
      job_ = job;
      t.begin(name, job);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) SpanTracer::instance().end(name_, job_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t job_ = kCurrentJob;
};

/// Sets the thread's ambient job id for spans AND the logger's job-context
/// prefix (support/log.h) for the scope's lifetime. Nested scopes restore
/// the outer job on exit.
class JobScope {
 public:
  explicit JobScope(std::int64_t job);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  std::int64_t prev_;
};

}  // namespace rif::obs

#define RIF_TRACE_CAT2(a, b) a##b
#define RIF_TRACE_CAT(a, b) RIF_TRACE_CAT2(a, b)

/// RAII span over the enclosing scope, attributed to the thread's JobScope.
#define RIF_TRACE_SPAN(name) \
  ::rif::obs::ScopedSpan RIF_TRACE_CAT(rif_trace_span_, __LINE__)(name)

/// RAII span with explicit job attribution (for work executed on threads
/// outside the job's scope, e.g. the streaming reader).
#define RIF_TRACE_SPAN_JOB(name, job) \
  ::rif::obs::ScopedSpan RIF_TRACE_CAT(rif_trace_span_, __LINE__)(name, job)

#define RIF_TRACE_INSTANT(name)                                         \
  do {                                                                  \
    if (::rif::obs::SpanTracer::instance().enabled())                   \
      ::rif::obs::SpanTracer::instance().instant(name);                 \
  } while (0)

#define RIF_TRACE_COUNTER(name, value)                                  \
  do {                                                                  \
    if (::rif::obs::SpanTracer::instance().enabled())                   \
      ::rif::obs::SpanTracer::instance().counter(name, value);          \
  } while (0)
