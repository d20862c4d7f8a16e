// Server side of the remote-worker plane: accepts rif_worker connections,
// runs the kHello -> kWelcome handshake that leases each worker a NodeId,
// and funnels every inbound frame / disconnect into one event queue the
// coordinator drains synchronously. Liveness is tracked with atomics so the
// scheduler's placement filter can consult it without touching the poll
// thread's locks.
//
// Liveness supervision (opt-in via configure_supervision): every decoded
// frame from a worker refreshes its last-activity stamp; a worker idle past
// the heartbeat period is sent kPing (the serve loop answers kPong, which
// refreshes the stamp and is swallowed here — the coordinator never sees
// it); a worker silent past the hung timeout is EVICTED — its session is
// aborted, which fires the same on_closed path as a real disconnect, so the
// coordinator's requeue machinery handles a hang exactly like a crash. The
// distinction survives in the counters: evictions() counts workers we gave
// up on, disconnects() counts every unexpected closure (evictions
// included). A hung timeout must exceed the longest single shard
// computation — a worker crunching a covariance shard reads no pings until
// it finishes.
//
// Every pool event is counted once, into a registry counter: into the
// registry given to bind_metrics, or into one the pool owns when it is
// never bound. The accessors read those same counters.
//
// Chaos testing (opt-in via install_faults): a net::FaultInjectingTransport
// is interposed at the frame boundary, so every scripted drop / delay /
// corruption / partition / kill exercises the exact supervision and
// requeue paths above.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/fault_injection.h"
#include "net/socket_transport.h"
#include "runtime/metrics.h"
#include "scp/wire.h"

namespace rif::cluster {

/// Liveness knobs. Zeros disable the corresponding behaviour; with both
/// zero no supervision thread runs at all (the seed's behaviour).
struct SupervisionConfig {
  /// Ping a worker that has been silent this long (seconds). 0 = no pings.
  double heartbeat_seconds = 0.0;
  /// Evict a worker silent this long (seconds). 0 = never evict. Must
  /// comfortably exceed the heartbeat period AND the longest shard compute.
  double hung_timeout_seconds = 0.0;
};

class RemoteWorkerPool {
 public:
  struct Event {
    enum class Kind { kFrame, kClosed };
    Kind kind = Kind::kFrame;
    int worker = -1;               ///< pool index, dense from 0
    scp::WireEnvelope env;         ///< kFrame only; owns its frame
  };

  RemoteWorkerPool() { resolve_counters(); }
  ~RemoteWorkerPool() { stop(); }
  RemoteWorkerPool(const RemoteWorkerPool&) = delete;
  RemoteWorkerPool& operator=(const RemoteWorkerPool&) = delete;

  /// Bind before start(). Port 0 picks an ephemeral port (see port()).
  [[nodiscard]] bool listen_tcp(std::uint16_t port);
  [[nodiscard]] bool listen_unix(const std::string& path);
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

  /// Begin accepting workers. Welcomed workers are assigned NodeIds
  /// `first_node_id`, `first_node_id + 1`, ... in connection order.
  void start(NodeId first_node_id);

  /// Enable heartbeat/eviction supervision. Call before start().
  void configure_supervision(const SupervisionConfig& config);

  /// Interpose a fault-injection layer at the frame boundary (chaos
  /// tests). Call before start(); the plan is fixed for the pool's life.
  void install_faults(net::WireFaultPlan plan);

  /// Count into `registry` instead of the pool's own: `<prefix>pings`,
  /// `<prefix>pongs`, `<prefix>evictions`, `<prefix>disconnects`,
  /// `<prefix>malformed`, `<prefix>telemetry_batches`,
  /// `<prefix>telemetry_rejected` and, when faults are installed, the
  /// fault layer's counters under `<prefix>faults.`. Call before start().
  void bind_metrics(runtime::MetricsRegistry& registry,
                    const std::string& prefix = "remote.");

  /// Receiver for decoded kTelemetry batches. Called on the poll thread,
  /// outside the pool lock, with the sender's leased NodeId. Telemetry
  /// never enters the event queue — it flows whether or not a job is
  /// draining events. A batch whose BODY fails to decode is counted
  /// (`<prefix>telemetry_rejected`) and dropped with the session kept:
  /// degraded telemetry must not kill a healthy compute session. Set
  /// before start().
  void set_telemetry_sink(
      std::function<void(NodeId, const scp::TelemetryBody&)> sink);

  /// Spawn an in-process worker over a socketpair (tests, local fallback
  /// capacity). Runs serve_remote_worker() on its own thread.
  void spawn_local_worker();

  /// Adopt an already-connected fd as a worker session (the other end runs
  /// its own client — e.g. a test worker with scripted failures).
  void adopt_fd(int fd);

  /// Forcibly drop a worker's connection (crash injection in tests).
  void kick(int worker);

  /// Block until `n` workers have completed the handshake (or timeout).
  /// Returns the number welcomed so far.
  int wait_for_workers(int n, double timeout_seconds);

  [[nodiscard]] int worker_count() const;
  [[nodiscard]] bool alive(int worker) const;
  [[nodiscard]] NodeId node_of(int worker) const;
  [[nodiscard]] int worker_of_node(NodeId node) const;
  [[nodiscard]] int disconnects() const {
    return static_cast<int>(disconnects_->value());
  }
  /// Workers evicted by supervision (a subset of disconnects()).
  [[nodiscard]] int evictions() const {
    return static_cast<int>(evictions_->value());
  }
  [[nodiscard]] std::uint64_t pings_sent() const { return pings_->value(); }
  [[nodiscard]] std::uint64_t pongs_received() const {
    return pongs_->value();
  }
  /// Ping-echo clock estimate for a leased node: median over the session's
  /// samples of (worker steady ns − coordinator steady ns), so a worker
  /// timestamp t maps onto the coordinator clock as t − offset. 0 until a
  /// timestamped pong arrives (the same-machine truth).
  [[nodiscard]] std::int64_t clock_offset_ns(NodeId node) const;
  /// Seconds since the last decoded frame from `worker` (tests).
  [[nodiscard]] double seconds_since_activity(int worker) const;

  /// Frame and queue one envelope to a worker. False if it is gone.
  bool send(int worker, const scp::WireEnvelope& env);
  /// Queue one already-encoded envelope; the buffer moves to the socket.
  bool send(int worker, FrameBytes encoded);

  /// Wait up to `timeout_seconds` for the next frame or disconnect.
  std::optional<Event> poll_event(double timeout_seconds);

  /// kGoodbye to every live worker, then drain their sockets.
  void shutdown_workers();

  void stop();

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    net::SessionId session = net::kNoSession;
    NodeId node = kNoNode;
    std::unique_ptr<std::atomic<bool>> alive;
    Clock::time_point last_activity;  ///< last decoded frame (under mu_)
    Clock::time_point last_ping;      ///< last kPing sent (under mu_)
    /// In-flight seq-tagged pings: seq -> coordinator send stamp (ns).
    /// Bounded; a pong that misses the window contributes no sample.
    std::map<std::uint64_t, std::uint64_t> pending_pings;
    /// Ping-echo offset samples (worker ns - coordinator midpoint ns).
    std::vector<std::int64_t> clock_offsets;
  };

  void on_frame(net::SessionId session, FrameBytes frame);
  void on_closed(net::SessionId session);
  void supervision_loop();
  /// Route one framed envelope to a session — through the fault layer
  /// when one is installed.
  bool route_send(net::SessionId session, FrameBytes bytes);
  /// Send one seq-tagged kPing and record its send stamp for the
  /// ping-echo clock estimator. Takes mu_ briefly; call unlocked.
  void send_timed_ping(net::SessionId session, NodeId node);
  /// Point the event counters at metrics_ under metrics_prefix_.
  void resolve_counters();

  /// The registry the pool counts into: its own until bind_metrics.
  /// Declared before the server and threads that count into it.
  runtime::MetricsRegistry own_metrics_;
  runtime::MetricsRegistry* metrics_ = &own_metrics_;
  std::string metrics_prefix_ = "remote.";
  runtime::Counter* pings_ = nullptr;
  runtime::Counter* pongs_ = nullptr;
  runtime::Counter* evictions_ = nullptr;
  runtime::Counter* disconnects_ = nullptr;
  runtime::Counter* malformed_ = nullptr;
  runtime::Counter* telemetry_batches_ = nullptr;
  runtime::Counter* telemetry_rejected_ = nullptr;

  net::SocketServer server_;
  /// Set by install_faults; the transport is built at start(), once the
  /// registry it counts into is final.
  std::optional<net::WireFaultPlan> fault_plan_;
  std::unique_ptr<net::FaultInjectingTransport> faults_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;                  ///< by worker index
  std::map<net::SessionId, int> by_session_;
  std::map<NodeId, int> by_node_;
  std::deque<Event> events_;
  NodeId first_node_ = kNoNode;
  std::atomic<std::uint64_t> ping_seq_{0};
  std::function<void(NodeId, const scp::TelemetryBody&)> telemetry_sink_;
  std::vector<std::thread> local_threads_;
  bool started_ = false;

  SupervisionConfig sup_;
  std::thread sup_thread_;
  std::condition_variable sup_cv_;
  bool sup_running_ = false;  ///< under mu_
};

}  // namespace rif::cluster
