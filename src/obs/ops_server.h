// OpsServer — the live ops plane: a read-only network introspection
// endpoint for a running FusionService.
//
// Everything the service knows about itself used to be reachable only
// post-hoc through files (METRICS_timeline.json, the NDJSON stream path,
// FLAME_*.json). The ops endpoint answers "what are you doing right now?"
// over a real socket while jobs execute: it binds its own TCP or Unix
// listener on a dedicated net::SocketServer poll loop and speaks the same
// RIF1 length-prefixed frame codec as the worker plane — but the payloads
// are plain text, not WireEnvelopes, so the ops vocabulary stays
// independent of the actor protocol and a one-line CLI (tools/rif_ops) or
// ten lines of Python can drive it.
//
// Request vocabulary (one UTF-8 command per frame):
//
//   status             -> one JSON frame: uptime, job counts (queued /
//                         running / completed / ...), leased workers with
//                         liveness + clock offsets, ops-plane health.
//   metrics            -> one JSON frame: the full registry snapshot
//                         (runtime::MetricsRegistry::to_json schema),
//                         including the remote.worker.<node>.* and merged
//                         remote.cluster.* series.
//   subscribe-metrics  -> one ack frame {"subscribed":true}, then one
//                         NDJSON frame per MetricsScraper scrape
//                         (obs::metrics_sample_json schema) pushed until
//                         the client disconnects. Multiple concurrent
//                         subscribers are independent; a subscriber that
//                         stops reading gets frames DROPPED (counted) —
//                         the scraper is never backpressured.
//   flamegraph         -> one JSON frame: the current span fold
//                         (obs::FlameTable::to_json schema), computed on
//                         demand.
//   logs [N]           -> one frame of NDJSON lines: the newest N records
//                         (default OpsServerConfig::default_log_tail) of
//                         the service's structured log ring, oldest first.
//                         Worker-shipped records carry their node id.
//
// Trust boundary: the listener is read-only and session-isolated. An
// unknown, oversized, or non-text request, or a `logs` count that is not a
// positive decimal number, closes THAT session (counted as a bad
// request); a corrupt RIF1 frame poisons only its own session's assembler
// (net/frame.h) and the SocketServer closes it — either way the service
// and every other subscriber keep running, asserted under seeded wire
// faults in tests/ops_test.cc.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/socket_transport.h"
#include "support/log.h"

namespace rif::obs {

struct OpsServerConfig {
  /// TCP port to bind on 127.0.0.1 (0 = ephemeral, see port()) — used
  /// unless `unix_path` is set.
  std::uint16_t port = 0;
  std::string unix_path;
  /// Requests longer than this are hostile by construction (the longest
  /// legal command is a short word plus a count) and close the session.
  std::size_t max_request_bytes = 256;
  /// Unsent-byte backlog above which a subscriber's next pushed sample is
  /// dropped instead of queued (see SocketServer::send_limited).
  std::size_t max_subscriber_backlog_bytes = 1 << 20;
  /// `logs` with no count returns this many records.
  std::size_t default_log_tail = 100;
};

/// One shipped-or-local log record as a single-line JSON object — the line
/// shape of the `logs` response.
std::string log_record_json(const LogRecord& record);

/// One request of the vocabulary above.
struct OpsRequest {
  enum class Command { kStatus, kMetrics, kSubscribeMetrics, kFlamegraph,
                       kLogs };
  Command command = Command::kStatus;
  /// Records a `logs` request asks for: its count, else the default tail.
  std::size_t count = 0;
};

/// Parse one request frame. Nullopt — the session is closed — when the
/// frame is longer than `config.max_request_bytes`, holds a byte that is
/// neither printable ASCII nor whitespace, names no command, or gives
/// `logs` a count that is not a positive decimal number in range ("logs -5",
/// "logs +5", "logs 0" and a count past SIZE_MAX are all refused).
std::optional<OpsRequest> parse_ops_request(
    std::span<const std::uint8_t> frame, const OpsServerConfig& config);

class OpsServer {
 public:
  /// Data sources, supplied by the service. The JSON providers run ON THE
  /// OPS POLL THREAD concurrently with the service's own threads, so they
  /// must only touch thread-safe state (atomic registry series, the
  /// pool's locked accessors, the collector). Null providers answer with
  /// an {"error": ...} object instead of closing the session.
  struct Providers {
    std::function<std::string()> status_json;
    std::function<std::string()> metrics_json;
    std::function<std::string()> flamegraph_json;
    /// Tail source for `logs`; may be null (answers with an error object).
    LogRing* log_ring = nullptr;
  };

  OpsServer(OpsServerConfig config, Providers providers);
  ~OpsServer();
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Bind (unix_path if set, else TCP) and start the poll loop. False on
  /// bind failure.
  [[nodiscard]] bool start();
  void stop();
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

  /// Fan one scraped NDJSON sample out to every subscribe-metrics session.
  /// Called from the scraper thread on every scrape; never blocks on a
  /// slow subscriber — a session whose backlog exceeds the configured cap
  /// just loses this frame (counted in frames_dropped()).
  void publish_metrics_sample(const std::string& line);

  // Ops-plane health, for the report and tests.
  [[nodiscard]] std::uint64_t requests() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t bad_requests() const {
    return bad_requests_.load();
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_.load();
  }
  [[nodiscard]] std::size_t subscribers() const;

 private:
  void on_frame(net::SessionId session, const FrameBytes& frame);
  void on_closed(net::SessionId session);
  void reply(net::SessionId session, const std::string& text);
  /// Count a hostile request and close its session (session-only).
  void reject(net::SessionId session);

  OpsServerConfig config_;
  Providers providers_;
  net::SocketServer server_;
  bool started_ = false;

  mutable std::mutex mu_;
  std::set<net::SessionId> subscribers_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
};

}  // namespace rif::obs
