// Minimal leveled logger with a virtual-time hook.
//
// The simulation installs a clock callback so that log lines carry virtual
// seconds rather than wall time, which makes protocol traces directly
// comparable across runs.
//
// The initial level comes from the RIF_LOG environment variable (one of
// trace|debug|info|warn|error, case-insensitive; default warn), read once
// when the logger is first touched. set_level() still overrides it.
//
// Timestamps: every line carries "[%12.6fs]" — virtual seconds when the
// simulation installed its clock, wall seconds since logger construction
// otherwise — so a chaos soak log interleaves meaningfully with the
// metrics timeline.
//
// Rate limiting: RIF_LOG_EVERY(level, component, period_seconds, expr)
// keeps a per-call-site limiter so repetitive chatter (heartbeat misses,
// eviction retries) emits at most one line per period, with a
// "(+N suppressed)" suffix accounting for the rest.
//
// Job context: worker threads executing on behalf of a job install the job
// id via log_set_job_context() (the obs::JobScope RAII does this together
// with trace attribution), and every line logged from that thread gains a
// "[job N] " message prefix. The line format is otherwise unchanged.
//
// Structured capture: alongside the stderr line, every emitted record can
// be captured as data. A process-wide LogRing installed with
// Logger::set_sink() receives every record (the ops plane's `logs`
// endpoint tails it); a per-thread capture hook installed with
// log_set_thread_capture() claims the CALLING THREAD's records instead of
// the global sink (the remote worker serve loop buffers its own lines for
// kTelemetry shipment this way without seeing other threads' chatter).
// With neither installed the stderr fast path pays one relaxed atomic load
// and one thread-local read — guarded by a test, like the tracer's
// disabled path.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace rif {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

/// One emitted log line as structured data. `message` carries the raw text
/// (no "[job N]" prefix — the job travels in its own field); `t_seconds`
/// is the same axis as the stderr timestamp (virtual seconds under a sim
/// clock, wall seconds since logger construction otherwise); `node` is -1
/// for lines this process emitted and the worker's leased node id for
/// records shipped back over kTelemetry.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string component;
  std::string message;
  std::int64_t job = -1;
  double t_seconds = 0.0;
  std::int32_t node = -1;
};

/// Bounded in-memory ring of LogRecords: append drops the OLDEST record
/// past the capacity and tallies the drop, so a long run keeps a recent
/// window at fixed memory instead of growing or refusing. Thread-safe.
class LogRing {
 public:
  explicit LogRing(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void append(LogRecord record);
  /// The most recent min(n, size) records, oldest first.
  [[nodiscard]] std::vector<LogRecord> tail(std::size_t n) const;
  [[nodiscard]] std::size_t size() const;
  /// Records ever appended / evicted to make room.
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<LogRecord> ring_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Attach a job id to the calling thread's log lines ("[job N] " prefix).
/// Pass kLogNoJob to clear. Thread-local; prefer obs::JobScope over calling
/// this directly so trace attribution stays in sync.
inline constexpr std::int64_t kLogNoJob = -1;
void log_set_job_context(std::int64_t job);
[[nodiscard]] std::int64_t log_job_context();

/// Route the CALLING THREAD's emitted records to `fn` instead of the
/// global sink (stderr is unaffected). Pass nullptr to restore. The
/// pointed-to function must stay valid until cleared; the canonical user
/// installs a stack-local functor for the scope of a serve loop.
void log_set_thread_capture(const std::function<void(const LogRecord&)>* fn);

/// Parse a RIF_LOG-style level name; false (and *out untouched) when the
/// name is not recognised.
bool parse_log_level(const std::string& name, LogLevel* out);

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  void write(LogLevel level, const std::string& component,
             const std::string& message);

  [[nodiscard]] bool enabled(LogLevel level) const { return level >= level_; }

  /// Install `ring` as the process-wide structured sink: every record at or
  /// above the level threshold is appended (after the stderr write). Pass
  /// nullptr to uninstall; either call synchronizes with in-flight writes,
  /// so the previous ring is safe to destroy on return.
  void set_sink(LogRing* ring);
  /// Uninstall only if `ring` is still the installed sink — the safe form
  /// for an owner tearing down, which must not evict a newer sink.
  void remove_sink(LogRing* ring);
  [[nodiscard]] bool sink_installed() const {
    return sink_.load(std::memory_order_relaxed) != nullptr;
  }

  /// The timestamp a record emitted now would carry (the stderr axis): wall
  /// seconds since construction. The ops plane stamps shipped worker
  /// records with it.
  [[nodiscard]] double now_seconds() const;

 private:
  Logger();
  LogLevel level_ = LogLevel::kWarn;
  std::uint64_t start_ns_ = 0;  ///< steady clock at construction (wall axis)
  /// Relaxed-load fast path; sink_mu_ orders append against (un)install.
  std::atomic<LogRing*> sink_{nullptr};
  std::mutex sink_mu_;
};

/// Per-site token for RIF_LOG_EVERY: at most one allow() per period, the
/// rest counted. Lock-free — safe from any thread, including the pool's
/// socket thread mid-eviction.
class LogRateLimiter {
 public:
  /// True when a line may be emitted now. On true, *suppressed receives
  /// the number of calls swallowed since the last emitted line (and the
  /// internal count resets); on false the call is counted instead.
  bool allow(double period_seconds, std::uint64_t* suppressed);

 private:
  std::atomic<std::uint64_t> next_ns_{0};
  std::atomic<std::uint64_t> suppressed_{0};
};

}  // namespace rif

#define RIF_LOG(level, component, expr)                                  \
  do {                                                                   \
    if (::rif::Logger::instance().enabled(level)) {                      \
      std::ostringstream rif_log_os_;                                    \
      rif_log_os_ << expr;                                               \
      ::rif::Logger::instance().write(level, component, rif_log_os_.str()); \
    }                                                                    \
  } while (0)

/// RIF_LOG, at most once per `period_seconds` PER CALL SITE; swallowed
/// repeats are tallied into a "(+N suppressed)" suffix on the next line.
#define RIF_LOG_EVERY(level, component, period_seconds, expr)                \
  do {                                                                       \
    if (::rif::Logger::instance().enabled(level)) {                          \
      static ::rif::LogRateLimiter rif_log_limiter_;                         \
      std::uint64_t rif_log_suppressed_ = 0;                                 \
      if (rif_log_limiter_.allow(period_seconds, &rif_log_suppressed_)) {    \
        std::ostringstream rif_log_os_;                                      \
        rif_log_os_ << expr;                                                 \
        if (rif_log_suppressed_ > 0) {                                       \
          rif_log_os_ << " (+" << rif_log_suppressed_ << " suppressed)";     \
        }                                                                    \
        ::rif::Logger::instance().write(level, component,                    \
                                        rif_log_os_.str());                  \
      }                                                                      \
    }                                                                        \
  } while (0)

#define RIF_LOG_DEBUG(component, expr) \
  RIF_LOG(::rif::LogLevel::kDebug, component, expr)
#define RIF_LOG_INFO(component, expr) \
  RIF_LOG(::rif::LogLevel::kInfo, component, expr)
#define RIF_LOG_WARN(component, expr) \
  RIF_LOG(::rif::LogLevel::kWarn, component, expr)
#define RIF_LOG_ERROR(component, expr) \
  RIF_LOG(::rif::LogLevel::kError, component, expr)
