// Chrome trace-event JSON writer — the one serialization point for every
// timeline the repo exports.
//
// Output is the Trace Event Format that Perfetto and chrome://tracing load
// directly: {"traceEvents":[...],"displayTimeUnit":"ms"}, one object per
// event with name/ph/ts(us)/pid/tid and optional args/dur. Two producers
// share this writer so their schemas cannot drift:
//
//   * obs::SpanTracer      — real wall-clock execution and the service's
//                            virtual job lanes (write_chrome_trace)
//   * obs::RemoteTelemetryCollector — one lane per remote worker in the
//                            unified trace (write_unified_trace)
//
// Event kinds emitted: "B"/"E" duration pairs (strictly nested per tid),
// "X" complete events (pre-paired, with dur), "i" instants, "C" counters,
// and "M" process_name/thread_name metadata. obs/trace_check.h validates
// exactly this schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_tracer.h"

namespace rif::obs {

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes). Shared by every JSON producer in the tree.
std::string json_escape(const std::string& s);

class ChromeTraceWriter {
 public:
  struct Event {
    std::string name;
    char ph = 'i';       ///< B | E | X | i | C | M
    double ts_us = 0.0;  ///< microseconds on the event's timeline
    double dur_us = -1.0;  ///< X only; < 0 = omitted
    int pid = 1;
    int tid = 0;
    /// Pre-rendered JSON object body WITHOUT braces, e.g.
    /// "\"job\": 3, \"tenant\": \"alpha\"". Empty = no args.
    std::string args_json;
  };

  /// Emit "M" process_name / thread_name metadata (sorts before ts-equal
  /// real events on the same track).
  void set_process_name(int pid, const std::string& name);
  void set_thread_name(int pid, int tid, const std::string& name);

  void add(Event event) { events_.push_back(std::move(event)); }

  /// Serialize all events, stably sorted by (pid, tid, ts) — stable so
  /// same-timestamp events keep their per-track emission order (an E at
  /// the instant of the next B stays before it).
  [[nodiscard]] std::string to_json() const;

  /// to_json() to a file. False on I/O error.
  bool write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  std::vector<Event> metadata_;
};

/// Exported pids of the two SpanTracer timelines.
inline constexpr int kWallPid = 1;     ///< "rif-host" — real threads
inline constexpr int kVirtualPid = 2;  ///< "rif-service" — one track per job

/// Convert a SpanTracer snapshot into writer events: wall events on
/// kWallPid (tid = thread, named via set_thread_name), virtual events on
/// kVirtualPid (tid = job track, named "job N"), every attributed event
/// carrying {"job": id, "tenant": "..."} args from the tracer's job map.
void fill_from_tracer(ChromeTraceWriter& writer, const SpanTracer& tracer);

/// One-call export of the process tracer: collect, convert, write `path`.
/// False on I/O error.
bool write_chrome_trace(const std::string& path,
                        const SpanTracer& tracer = SpanTracer::instance());

}  // namespace rif::obs
