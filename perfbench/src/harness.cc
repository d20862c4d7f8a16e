#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// A "Vm...:  N kB" field of /proc/self/status, in MB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

double current_rss_mb() { return status_mb("VmRSS:"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line
  std::vector<std::uint64_t> cols;
  std::uint64_t v = 0;
  while (cols.size() < 10 && in >> v) cols.push_back(v);
  cols.resize(10, 0);
  HostTicks t;
  // user nice system idle iowait irq softirq steal guest guest_nice
  t.busy = cols[0] + cols[1] + cols[2] + cols[5] + cols[6];
  t.steal = cols[7];
  for (int i = 0; i < 8; ++i) t.total += cols[static_cast<std::size_t>(i)];
  return t;
}

double ticks_per_second() {
  return static_cast<double>(sysconf(_SC_CLK_TCK));
}

int SpanLog::begin(std::string name, int request) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanLog::end(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.request,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
