#include "cluster/remote_pool.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/remote_worker.h"
#include "obs/span_tracer.h"
#include "support/check.h"
#include "support/log.h"
#include "support/serialize.h"

namespace rif::cluster {

bool RemoteWorkerPool::listen_tcp(std::uint16_t port) {
  return server_.listen_tcp(port);
}

bool RemoteWorkerPool::listen_unix(const std::string& path) {
  return server_.listen_unix(path);
}

void RemoteWorkerPool::configure_supervision(const SupervisionConfig& config) {
  RIF_CHECK_MSG(!started_, "configure_supervision after start");
  sup_ = config;
}

void RemoteWorkerPool::install_faults(net::WireFaultPlan plan) {
  RIF_CHECK_MSG(!started_, "install_faults after start");
  fault_plan_ = std::move(plan);
}

void RemoteWorkerPool::bind_metrics(runtime::MetricsRegistry& registry,
                                    const std::string& prefix) {
  RIF_CHECK_MSG(!started_, "bind_metrics after start");
  metrics_ = &registry;
  metrics_prefix_ = prefix;
  resolve_counters();
}

void RemoteWorkerPool::resolve_counters() {
  const auto counter = [this](const char* name) {
    return &metrics_->counter(metrics_prefix_ + name);
  };
  pings_ = counter("pings");
  pongs_ = counter("pongs");
  evictions_ = counter("evictions");
  disconnects_ = counter("disconnects");
  malformed_ = counter("malformed");
  telemetry_batches_ = counter("telemetry_batches");
  telemetry_rejected_ = counter("telemetry_rejected");
}

void RemoteWorkerPool::set_telemetry_sink(
    std::function<void(NodeId, const scp::TelemetryBody&)> sink) {
  RIF_CHECK_MSG(!started_, "set_telemetry_sink after start");
  telemetry_sink_ = std::move(sink);
}

void RemoteWorkerPool::start(NodeId first_node_id) {
  first_node_ = first_node_id;
  started_ = true;
  auto frame_cb = [this](net::SessionId s, FrameBytes f) {
    on_frame(s, std::move(f));
  };
  auto closed_cb = [this](net::SessionId s) { on_closed(s); };
  if (fault_plan_) {
    faults_ = std::make_unique<net::FaultInjectingTransport>(
        server_, std::move(*fault_plan_), *metrics_,
        metrics_prefix_ + "faults.");
  }
  if (faults_ != nullptr) {
    faults_->start(std::move(frame_cb), std::move(closed_cb));
  } else {
    server_.start(std::move(frame_cb), std::move(closed_cb));
  }
  if (sup_.heartbeat_seconds > 0.0 || sup_.hung_timeout_seconds > 0.0) {
    {
      std::lock_guard lock(mu_);
      sup_running_ = true;
    }
    sup_thread_ = std::thread([this] { supervision_loop(); });
  }
}

bool RemoteWorkerPool::route_send(net::SessionId session, FrameBytes bytes) {
  if (faults_ != nullptr) return faults_->send(session, std::move(bytes));
  return server_.send(session, std::move(bytes));
}

void RemoteWorkerPool::supervision_loop() {
  // Tick a few times per period so a deadline is never missed by more
  // than a fraction of itself.
  double tick = 0.05;
  if (sup_.heartbeat_seconds > 0.0) {
    tick = std::min(tick, sup_.heartbeat_seconds / 4.0);
  }
  if (sup_.hung_timeout_seconds > 0.0) {
    tick = std::min(tick, sup_.hung_timeout_seconds / 4.0);
  }
  tick = std::max(tick, 0.002);

  for (;;) {
    std::vector<net::SessionId> evict;
    std::vector<std::pair<net::SessionId, NodeId>> ping;
    {
      std::unique_lock lock(mu_);
      sup_cv_.wait_for(lock, std::chrono::duration<double>(tick),
                       [&] { return !sup_running_; });
      if (!sup_running_) return;
      const auto now = Clock::now();
      for (Slot& s : slots_) {
        if (!s.alive->load()) continue;
        const double idle =
            std::chrono::duration<double>(now - s.last_activity).count();
        if (sup_.hung_timeout_seconds > 0.0 &&
            idle >= sup_.hung_timeout_seconds) {
          evict.push_back(s.session);
        } else if (sup_.heartbeat_seconds > 0.0 &&
                   idle >= sup_.heartbeat_seconds &&
                   std::chrono::duration<double>(now - s.last_ping).count() >=
                       sup_.heartbeat_seconds) {
          s.last_ping = now;
          ping.push_back({s.session, s.node});
        }
      }
    }
    for (const net::SessionId session : evict) {
      evictions_->add();
      RIF_TRACE_INSTANT("remote.evict");
      // Rate-limited: a chaos soak can evict in bursts, and the eviction
      // counter already carries the exact tally.
      RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                    "evicting hung worker on session "
                        << session << " (silent past "
                        << sup_.hung_timeout_seconds << "s)");
      // abort, not close: a hung peer may have stopped reading, and a
      // graceful drain would then never finish.
      server_.abort_session(session);
    }
    for (const auto& [session, node] : ping) {
      pings_->add();
      send_timed_ping(session, node);
    }
  }
}

void RemoteWorkerPool::send_timed_ping(net::SessionId session, NodeId node) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kPing;
  env.dst_node = node;
  env.seq = ping_seq_.fetch_add(1) + 1;
  const auto now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
  {
    std::lock_guard lock(mu_);
    const auto it = by_session_.find(session);
    if (it != by_session_.end()) {
      auto& pending =
          slots_[static_cast<std::size_t>(it->second)].pending_pings;
      pending[env.seq] = now_ns;
      // Bound in-flight entries: a worker that never answers must not
      // grow this map forever.
      while (pending.size() > 32) pending.erase(pending.begin());
    }
  }
  route_send(session, env.encode<FrameBytes>());
}

void RemoteWorkerPool::spawn_local_worker() {
  RIF_CHECK_MSG(started_, "pool not started");
  int sv[2];
  RIF_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                "socketpair failed");
  server_.adopt(sv[0]);
  local_threads_.emplace_back([fd = sv[1]] {
    net::SocketClient client;
    client.adopt(fd);
    serve_remote_worker(client);
    client.close();
  });
}

void RemoteWorkerPool::adopt_fd(int fd) {
  RIF_CHECK_MSG(started_, "pool not started");
  server_.adopt(fd);
}

void RemoteWorkerPool::kick(int worker) {
  net::SessionId session = net::kNoSession;
  {
    std::lock_guard lock(mu_);
    if (worker < 0 || worker >= static_cast<int>(slots_.size())) return;
    session = slots_[worker].session;
  }
  server_.close_session(session);
}

void RemoteWorkerPool::on_frame(net::SessionId session, FrameBytes frame) {
  // Trust boundary: anything can connect to the listener, so a malformed
  // envelope drops the session instead of aborting the poll thread. The
  // envelope keeps the frame, so its body is never copied on the way to
  // the coordinator.
  std::optional<scp::WireEnvelope> decoded =
      scp::WireEnvelope::try_decode(std::move(frame));
  if (!decoded) {
    RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                  "malformed envelope on session " << session
                                                   << "; closing");
    malformed_->add();
    server_.close_session(session);
    return;
  }
  scp::WireEnvelope& env = *decoded;
  std::unique_lock lock(mu_);
  auto it = by_session_.find(session);
  if (it == by_session_.end()) {
    // First frame on a fresh session must be the handshake.
    if (env.kind != scp::FrameKind::kHello) return;
    const int worker = static_cast<int>(slots_.size());
    Slot slot;
    slot.session = session;
    slot.node = first_node_ + worker;
    slot.alive = std::make_unique<std::atomic<bool>>(true);
    slot.last_activity = Clock::now();
    slot.last_ping = slot.last_activity;
    by_session_[session] = worker;
    by_node_[slot.node] = worker;
    scp::WireEnvelope welcome;
    welcome.kind = scp::FrameKind::kWelcome;
    welcome.dst_node = slot.node;
    rif::Writer w;
    w.put<std::int32_t>(slot.node);
    welcome.payload = std::move(w).take();
    const NodeId node = slot.node;
    slots_.push_back(std::move(slot));
    lock.unlock();
    route_send(session, welcome.encode<FrameBytes>());
    // Clock-alignment burst: a handful of seq-tagged pings right at lease
    // time, so the median offset estimate exists before the first job's
    // telemetry arrives (supervision pings keep refining it later).
    for (int i = 0; i < 5; ++i) send_timed_ping(session, node);
    RIF_LOG_INFO("remote", "worker " << worker << " leased node " << node);
    cv_.notify_all();
    return;
  }
  // Any decoded frame proves the worker is alive.
  Slot& slot = slots_[static_cast<std::size_t>(it->second)];
  slot.last_activity = Clock::now();
  if (env.kind == scp::FrameKind::kPong) {
    // Liveness echo: refreshed the stamp above, never reaches the
    // coordinator — a pong mid-job must not look like protocol traffic.
    // A timestamped pong additionally yields one clock-offset sample:
    // the worker's steady clock minus the midpoint of our send/receive
    // stamps (the classic ping-echo estimate; the RTT bounds its error).
    pongs_->add();
    const auto t0 = slot.pending_pings.find(env.seq);
    if (t0 != slot.pending_pings.end() &&
        env.body().size() == sizeof(std::uint64_t)) {
      rif::Reader r(env.body());
      std::uint64_t worker_ns = 0;
      if (r.try_get(worker_ns) && r.exhausted()) {
        const auto t1 = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                slot.last_activity.time_since_epoch())
                .count());
        const std::uint64_t mid = t0->second + (t1 - t0->second) / 2;
        slot.clock_offsets.push_back(static_cast<std::int64_t>(worker_ns) -
                                     static_cast<std::int64_t>(mid));
        if (slot.clock_offsets.size() > 128) {
          slot.clock_offsets.erase(slot.clock_offsets.begin());
        }
      }
      slot.pending_pings.erase(t0);
    }
    return;
  }
  if (env.kind == scp::FrameKind::kTelemetry) {
    // Telemetry bypasses the event queue: batches arrive between jobs too,
    // when nothing drains events, and must never stall or stale-poison the
    // protocol stream. Decode here (second trust boundary: the envelope
    // was sound, the body may not be) and hand the batch to the sink.
    const NodeId node = slot.node;
    lock.unlock();
    const std::optional<scp::TelemetryBody> body =
        scp::TelemetryBody::try_decode(env.body());
    if (!body) {
      telemetry_rejected_->add();
      RIF_LOG_EVERY(::rif::LogLevel::kWarn, "remote", 1.0,
                    "undecodable telemetry body from node "
                        << node << "; batch dropped");
      return;
    }
    telemetry_batches_->add();
    if (telemetry_sink_) telemetry_sink_(node, *body);
    return;
  }
  events_.push_back(Event{Event::Kind::kFrame, it->second, std::move(env)});
  lock.unlock();
  cv_.notify_all();
}

std::int64_t RemoteWorkerPool::clock_offset_ns(NodeId node) const {
  std::lock_guard lock(mu_);
  const auto it = by_node_.find(node);
  if (it == by_node_.end()) return 0;
  const Slot& slot = slots_[static_cast<std::size_t>(it->second)];
  if (slot.clock_offsets.empty()) return 0;
  std::vector<std::int64_t> samples = slot.clock_offsets;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[static_cast<std::size_t>(mid)];
}

void RemoteWorkerPool::on_closed(net::SessionId session) {
  std::unique_lock lock(mu_);
  auto it = by_session_.find(session);
  if (it == by_session_.end()) return;
  const int worker = it->second;
  // Only an UNEXPECTED closure counts as a disconnect — shutdown_workers
  // marks sessions dead before closing them.
  if (slots_[worker].alive->exchange(false)) {
    disconnects_->add();
  }
  events_.push_back(Event{Event::Kind::kClosed, worker, {}});
  lock.unlock();
  cv_.notify_all();
}

double RemoteWorkerPool::seconds_since_activity(int worker) const {
  std::lock_guard lock(mu_);
  if (worker < 0 || worker >= static_cast<int>(slots_.size())) return -1.0;
  return std::chrono::duration<double>(
             Clock::now() - slots_[static_cast<std::size_t>(worker)]
                                .last_activity)
      .count();
}

int RemoteWorkerPool::wait_for_workers(int n, double timeout_seconds) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock,
               std::chrono::duration<double>(timeout_seconds),
               [&] { return static_cast<int>(slots_.size()) >= n; });
  return static_cast<int>(slots_.size());
}

int RemoteWorkerPool::worker_count() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(slots_.size());
}

bool RemoteWorkerPool::alive(int worker) const {
  std::lock_guard lock(mu_);
  return worker >= 0 && worker < static_cast<int>(slots_.size()) &&
         slots_[worker].alive->load();
}

NodeId RemoteWorkerPool::node_of(int worker) const {
  std::lock_guard lock(mu_);
  RIF_CHECK(worker >= 0 && worker < static_cast<int>(slots_.size()));
  return slots_[worker].node;
}

int RemoteWorkerPool::worker_of_node(NodeId node) const {
  std::lock_guard lock(mu_);
  auto it = by_node_.find(node);
  return it == by_node_.end() ? -1 : it->second;
}

bool RemoteWorkerPool::send(int worker, const scp::WireEnvelope& env) {
  return send(worker, env.encode<FrameBytes>());
}

bool RemoteWorkerPool::send(int worker, FrameBytes encoded) {
  net::SessionId session = net::kNoSession;
  {
    std::lock_guard lock(mu_);
    if (worker < 0 || worker >= static_cast<int>(slots_.size())) return false;
    if (!slots_[worker].alive->load()) return false;
    session = slots_[worker].session;
  }
  return route_send(session, std::move(encoded));
}

std::optional<RemoteWorkerPool::Event> RemoteWorkerPool::poll_event(
    double timeout_seconds) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
               [&] { return !events_.empty(); });
  if (events_.empty()) return std::nullopt;
  Event e = std::move(events_.front());
  events_.pop_front();
  return e;
}

void RemoteWorkerPool::shutdown_workers() {
  scp::WireEnvelope bye;
  bye.kind = scp::FrameKind::kGoodbye;
  std::vector<net::SessionId> open;
  {
    std::lock_guard lock(mu_);
    for (const Slot& s : slots_) {
      if (s.alive->exchange(false)) open.push_back(s.session);
    }
  }
  const FrameBytes frame = bye.encode<FrameBytes>();
  for (net::SessionId s : open) {
    server_.send(s, frame);
    server_.close_session(s);
  }
}

void RemoteWorkerPool::stop() {
  if (!started_) return;
  {
    std::lock_guard lock(mu_);
    sup_running_ = false;
  }
  sup_cv_.notify_all();
  if (sup_thread_.joinable()) sup_thread_.join();
  shutdown_workers();
  server_.stop();
  for (std::thread& t : local_threads_) {
    if (t.joinable()) t.join();
  }
  local_threads_.clear();
  started_ = false;
}

}  // namespace rif::cluster
