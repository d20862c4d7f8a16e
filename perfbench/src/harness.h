// Measurement plumbing of the benchmark: wall and CPU clocks,
// order statistics, process memory, host CPU counters, and the
// harness-side span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// User + system CPU seconds of this process (getrusage).
double process_cpu_seconds();
/// Resident high-water mark of this process in MB (VmHWM).
double peak_rss_mb();
/// Current resident set of this process in MB (VmRSS).
double current_rss_mb();
/// Reset VmHWM to the current RSS (/proc/self/clear_refs "5"), so the
/// next peak_rss_mb() covers only what ran after the call.
bool reset_peak_rss();

/// Aggregate host CPU counters from /proc/stat, in clock ticks.
struct HostTicks {
  std::uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  std::uint64_t steal = 0;  ///< time a hypervisor ran someone else
  std::uint64_t total = 0;  ///< every column
};
HostTicks read_host_ticks();
/// Clock ticks per second of HostTicks (sysconf(_SC_CLK_TCK)).
double ticks_per_second();

/// Harness-side spans of the traced run: one record per call the harness
/// makes into a layer, nested by a begin/end stack (the harness is single
/// threaded). Spans of one request share its id. Kept in memory; written
/// out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    int request = 0;
  };

  /// Open a span under the innermost open one; returns its index.
  int begin(std::string name, int request);
  /// Close span `index` (must be the innermost open one); returns its
  /// duration in ms.
  double end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus the time its children cover,
  /// summed over all spans of that name (ms).
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Chrome trace-event JSON ("X" events, one tid per request).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int request)
      : log_(log),
        index_(log != nullptr ? log->begin(std::move(name), request) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Close early; returns the duration in ms (0 with a null log).
  double close() {
    if (log_ == nullptr || index_ < 0) return 0.0;
    const double ms = log_->end(index_);
    index_ = -1;
    return ms;
  }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
