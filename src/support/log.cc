#include "support/log.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rif {

namespace {

thread_local std::int64_t t_log_job = kLogNoJob;
thread_local const std::function<void(const LogRecord&)>* t_log_capture =
    nullptr;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void log_set_job_context(std::int64_t job) { t_log_job = job; }

std::int64_t log_job_context() { return t_log_job; }

void log_set_thread_capture(
    const std::function<void(const LogRecord&)>* fn) {
  t_log_capture = fn;
}

void LogRing::append(LogRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<LogRecord> LogRing::tail(std::size_t n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t take = std::min(n, ring_.size());
  return {ring_.end() - static_cast<std::ptrdiff_t>(take), ring_.end()};
}

std::size_t LogRing::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t LogRing::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t LogRing::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool parse_log_level(const std::string& name, LogLevel* out) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") {
    *out = LogLevel::kTrace;
  } else if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

Logger::Logger() : start_ns_(steady_now_ns()) {
  if (const char* env = std::getenv("RIF_LOG"); env != nullptr) {
    parse_log_level(env, &level_);  // unrecognised names keep the default
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

double Logger::now_seconds() const {
  return static_cast<double>(steady_now_ns() - start_ns_) / 1e9;
}

void Logger::set_sink(LogRing* ring) {
  const std::lock_guard<std::mutex> lock(sink_mu_);
  sink_.store(ring, std::memory_order_relaxed);
}

void Logger::remove_sink(LogRing* ring) {
  const std::lock_guard<std::mutex> lock(sink_mu_);
  if (sink_.load(std::memory_order_relaxed) == ring) {
    sink_.store(nullptr, std::memory_order_relaxed);
  }
}

void Logger::write(LogLevel level, const std::string& component,
                   const std::string& message) {
  static const char* kNames[] = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR"};
  const char* name = kNames[static_cast<int>(level)];
  std::string line;
  if (t_log_job != kLogNoJob) {
    line = "[job " + std::to_string(t_log_job) + "] " + message;
  } else {
    line = message;
  }
  // Wall seconds since logger construction: a timestamp a timeline tool
  // can align against.
  const double t = now_seconds();
  std::fprintf(stderr, "[%12.6fs] %-5s %-12s %s\n", t, name,
               component.c_str(), line.c_str());

  // Structured capture rides behind the stderr write. A thread-local
  // capture claims this thread's records (the worker serve loop shipping
  // its own lines); otherwise a relaxed load gates the global sink so the
  // common uncaptured path costs one atomic read.
  if (t_log_capture == nullptr &&
      sink_.load(std::memory_order_relaxed) == nullptr) {
    return;
  }
  LogRecord record;
  record.level = level;
  record.component = component;
  record.message = message;
  record.job = t_log_job;
  record.t_seconds = t;
  if (t_log_capture != nullptr) {
    (*t_log_capture)(record);
    return;
  }
  // Re-check under the install mutex: set_sink(nullptr) must be able to
  // wait out in-flight appends before the caller destroys the ring.
  const std::lock_guard<std::mutex> lock(sink_mu_);
  if (LogRing* ring = sink_.load(std::memory_order_relaxed)) {
    ring->append(std::move(record));
  }
}

bool LogRateLimiter::allow(double period_seconds, std::uint64_t* suppressed) {
  const std::uint64_t now = steady_now_ns();
  const auto period_ns = static_cast<std::uint64_t>(
      period_seconds > 0.0 ? period_seconds * 1e9 : 0.0);
  std::uint64_t next = next_ns_.load(std::memory_order_relaxed);
  while (now >= next) {
    if (next_ns_.compare_exchange_weak(next, now + period_ns,
                                       std::memory_order_relaxed)) {
      *suppressed = suppressed_.exchange(0, std::memory_order_relaxed);
      return true;
    }
  }
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace rif
