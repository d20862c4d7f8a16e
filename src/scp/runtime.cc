#include "scp/runtime.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "scp/wire.h"
#include "sim/trace.h"
#include "support/log.h"
#include "support/serialize.h"

namespace rif::scp {

namespace {
constexpr std::uint64_t kControlBytes = 64;
}  // namespace

class Shell;

/// Where to send a protocol reply (ack): the sender replica's address as
/// carried by the incoming envelope. Address-based (not pointer-based) so
/// it survives the frame's encoding; delivery to a replica that died or was
/// reincarnated since is dropped, exactly as a closure bound to the dead
/// shell used to be.
struct ReplyAddr {
  cluster::NodeId node = cluster::kNoNode;
  WireAddr addr;
};

// ---------------------------------------------------------------------------
// Internal runtime state
// ---------------------------------------------------------------------------

struct Member {
  int slot = -1;
  std::uint64_t incarnation = 0;
  cluster::NodeId node = cluster::kNoNode;
  Shell* shell = nullptr;  // owned by Impl::shells (never freed mid-run)
  bool alive = false;
};

struct Group {
  ThreadId tid = kNoThread;
  std::string name;
  ActorFactory factory;
  int replication = 1;
  std::uint64_t epoch = 0;
  bool finished = false;
  bool lost = false;
  JobId job = kNoJob;
  /// Non-empty: the only nodes this group's replicas may ever occupy.
  std::vector<cluster::NodeId> domain;
  std::vector<Member> members;     // index == slot
  std::vector<bool> regenerating;  // per slot
};

struct Runtime::Impl {
  Runtime& self;
  cluster::Cluster& cluster;
  net::Network& network;
  RuntimeConfig& config;
  ProtocolStats& stats;

  // Deque: Group references stay valid while a dynamic spawn (triggered from
  // inside an event handler, e.g. a service admitting the next queued job
  // from a completion callback) appends new groups.
  std::deque<Group> groups;
  std::vector<std::unique_ptr<Shell>> shells;  // graveyard included
  std::unique_ptr<cluster::LeastLoadedPlacement> placement;
  std::unique_ptr<cluster::RoundRobinPlacement> spawn_rr;
  bool started = false;
  bool stop_requested = false;

  // Failure detector (hosted on detector_node).
  cluster::NodeId detector_node = 0;
  struct HeartbeatRecord {
    std::uint64_t incarnation = 0;
    SimTime last_heard = 0;
  };
  std::map<std::pair<ThreadId, int>, HeartbeatRecord> last_heartbeat;

  explicit Impl(Runtime& rt)
      : self(rt),
        cluster(rt.cluster_),
        network(rt.network_),
        config(rt.config_),
        stats(rt.stats_) {
    placement = std::make_unique<cluster::LeastLoadedPlacement>(cluster);
    spawn_rr = std::make_unique<cluster::RoundRobinPlacement>(cluster);
  }

  [[nodiscard]] sim::Simulation& sim() { return cluster.simulation(); }

  Group& group(ThreadId tid) {
    RIF_CHECK(tid >= 0 && static_cast<std::size_t>(tid) < groups.size());
    return groups[tid];
  }

  /// Live members of a group (current view; the "directory service").
  std::vector<Member*> live_members(ThreadId tid) {
    std::vector<Member*> out;
    for (auto& m : group(tid).members) {
      if (m.alive) out.push_back(&m);
    }
    return out;
  }

  /// Append the complement of the group's domain to `excluded`, so that a
  /// placement pick can never leave the nodes the group is confined to.
  void exclude_outside_domain(const Group& g,
                              std::vector<cluster::NodeId>& excluded) {
    if (g.domain.empty()) return;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      if (std::find(g.domain.begin(), g.domain.end(), n) == g.domain.end()) {
        excluded.push_back(n);
      }
    }
  }

  Shell* make_shell(ThreadId tid, int slot, std::uint64_t inc,
                    cluster::NodeId node, std::unique_ptr<Actor> actor);
  void install_replica(ThreadId tid, int slot, std::uint64_t inc,
                       cluster::NodeId node, std::vector<std::uint8_t> state,
                       bool migration);

  /// Resolve a frame's destination address against the current membership
  /// view. Null if the address no longer names a live-enough replica (slot
  /// reincarnated, never existed): the frame is dropped, exactly as a
  /// delivery closure bound to a dead shell was. A killed-but-not-replaced
  /// shell IS returned — its own dead_ check drops the payload, preserving
  /// the historical drop point.
  Shell* route(const WireAddr& addr);
  /// Ship one encoded frame from `src` to `dst` over the virtual-time
  /// network; it is delivered by closure at the simulated arrival time,
  /// which this returns. The network is charged `charged_bytes`, not the
  /// frame's size, on purpose: the sim models the paper's 64-byte protocol
  /// header and CostOnly declared sizes, which the encoding does not
  /// replicate.
  SimTime send(cluster::NodeId src, cluster::NodeId dst,
               std::vector<std::uint8_t> frame, std::uint64_t charged_bytes) {
    // The deliver closure owns the frame; shared_ptr because std::function
    // requires copyable callables.
    auto carried =
        std::make_shared<std::vector<std::uint8_t>>(std::move(frame));
    return network.send(src, dst, charged_bytes,
                        [this, dst, carried = std::move(carried)] {
                          deliver(dst, std::move(*carried));
                        });
  }
  /// Arrival of one frame: decode the envelope and dispatch by kind.
  void deliver(cluster::NodeId dst_node, std::vector<std::uint8_t> frame);
  void handle_snapshot_request(const WireEnvelope& e);
  void handle_state_install(WireEnvelope e);
  /// Serialize a snapshot on the source node, then ship it to `target` as a
  /// kStateInstall frame (shared tail of regeneration and migration).
  void ship_state(ThreadId tid, int slot, std::uint64_t new_inc,
                  cluster::NodeId target, Shell* src_shell,
                  std::vector<std::uint8_t> state, bool migration);

  void start_detector();
  void detector_check();
  void on_heartbeat(ThreadId tid, int slot, std::uint64_t inc);
  void declare_dead(ThreadId tid, int slot);
  void try_regenerate(ThreadId tid, int slot);
  void install_regenerated(ThreadId tid, int slot, std::uint64_t inc,
                           cluster::NodeId node,
                           std::vector<std::uint8_t> state);
  void mark_lost(Group& g);
};

// ---------------------------------------------------------------------------
// Shell: one replica of a logical thread.
//
// Message processing is atomic: a message is acknowledged and the processed
// watermark advanced only once the actor's handler chain for it — including
// every ActorContext::compute continuation it spawned — has completed.
// Snapshots for regeneration are taken only between messages (quiescent
// points), so a restored replica is always consistent: senders retransmit
// exactly the suffix the snapshot has not processed, and the cloned send
// counters line up with what receivers have already deduplicated.
// ---------------------------------------------------------------------------

class Shell final : public ActorContext {
 public:
  Shell(Runtime::Impl& rt, ThreadId tid, int slot, std::uint64_t inc,
        cluster::NodeId node, std::unique_ptr<Actor> actor)
      : rt_(rt),
        tid_(tid),
        slot_(slot),
        inc_(inc),
        node_(node),
        actor_(std::move(actor)) {}

  // --- ActorContext -------------------------------------------------------
  [[nodiscard]] ThreadId self() const override { return tid_; }
  [[nodiscard]] int slot() const override { return slot_; }
  [[nodiscard]] SimTime now() const override { return rt_.sim().now(); }

  void send(ThreadId dst, Message msg) override;

  void compute(double flops, std::function<void()> then) override {
    if (dead_) return;
    ++pending_computes_;
    rt_.cluster.node(node_).submit_compute(
        flops, [this, then = std::move(then)] {
          if (dead_) return;
          --pending_computes_;
          then();
          maybe_complete_message();
        });
  }

  void finish() override {
    rt_.group(tid_).finished = true;
    finished_ = true;
  }

  void shutdown_runtime() override { rt_.stop_requested = true; }

  // --- Runtime-side interface ----------------------------------------------
  void start(bool run_on_start) {
    if (run_on_start) actor_->on_start(*this);
    if (rt_.config.resilient) {
      heartbeat_loop();
      retransmit_loop();
    }
    pump();  // drain any inbox restored from a snapshot
  }

  void kill() { dead_ = true; }
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] cluster::NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t incarnation() const { return inc_; }

  [[nodiscard]] std::uint64_t declared_state_bytes() const {
    return std::max<std::uint64_t>(actor_->state_bytes(), 1024);
  }

  /// Produce a message-boundary-consistent snapshot immediately. While a
  /// message is being processed, the snapshot is built from the checkpoint
  /// taken at its start, with the in-flight message prepended to the inbox:
  /// the restored replica replays it from scratch, deterministically
  /// re-issuing the same sequence numbers (receivers deduplicate).
  void request_snapshot(std::function<void(std::vector<std::uint8_t>)> fn) {
    if (dead_) return;
    fn(snapshot());
  }

  void restore(const std::vector<std::uint8_t>& bytes);

  /// Arrival of an application message copy (routed from deliver()).
  void receive_app(ThreadId src, std::uint64_t seq,
                   std::shared_ptr<const Message> msg,
                   const ReplyAddr& reply_to);

 private:
  struct Unacked {
    std::shared_ptr<const Message> msg;
    /// Latest expected arrival among copies sent so far; the RTO counts
    /// from here, so a payload queued in the local NIC is never "lost".
    SimTime expected_arrival = 0;
    int attempts = 0;  ///< retransmission rounds (exponential backoff)
    std::map<int, std::uint64_t> acked;  // slot -> incarnation that acked
  };
  struct InboxEntry {
    ThreadId src = kNoThread;
    std::uint64_t seq = 0;
    std::shared_ptr<const Message> msg;
  };

  std::vector<std::uint8_t> snapshot() const;

  void admit(ThreadId src, std::uint64_t seq,
             std::shared_ptr<const Message> msg) {
    inbox_.push_back(InboxEntry{src, seq, std::move(msg)});
    pump();
  }

  void pump() {
    if (busy_ || dead_ || inbox_.empty()) return;
    busy_ = true;
    current_ = inbox_.front();
    inbox_.pop_front();
    // Checkpoint the message-boundary state so a regeneration snapshot can
    // be served at any time during this (possibly long) transition.
    if (rt_.config.resilient) {
      checkpoint_.actor_state = actor_->snapshot_state();
      checkpoint_.next_send_seq = next_send_seq_;
      checkpoint_.unacked = unacked_;
    }
    // Protocol dispatch cost, then the actor's reactive transition.
    rt_.cluster.node(node_).submit_compute(
        rt_.config.dispatch_flops, [this] {
          if (dead_) return;
          in_handler_ = true;
          actor_->on_message(*this, current_.src, *current_.msg);
          in_handler_ = false;
          maybe_complete_message();
        });
  }

  void maybe_complete_message() {
    if (!busy_ || in_handler_ || pending_computes_ > 0 || dead_) return;
    // The transition for current_ is complete; process the next message.
    current_ = {};
    busy_ = false;
    pump();
  }

  /// Sends one point-to-point copy; returns its expected arrival time.
  /// The copy travels as an encoded WireEnvelope — the receiver decodes its
  /// own Message — while the network is charged the protocol's modelled
  /// wire size (64-byte header + declared payload), not the encoding size.
  SimTime send_copy(ThreadId dst, std::uint64_t seq,
                    const std::shared_ptr<const Message>& msg,
                    Member& member) {
    if (rt_.config.resilient) {
      // Group-communication marshalling consumes sender CPU per copy.
      const double marshal =
          rt_.config.marshal_flops_base +
          rt_.config.marshal_flops_per_byte *
              static_cast<double>(msg->wire_bytes());
      rt_.cluster.node(node_).submit_compute(marshal, [] {});
    }
    WireEnvelope e;
    e.kind = FrameKind::kApp;
    e.src_node = node_;
    e.dst_node = member.node;
    e.src = {tid_, slot_, inc_};
    e.dst = {dst, member.slot, member.incarnation};
    e.seq = seq;
    e.msg_type = msg->type;
    e.declared = msg->declared_bytes;
    e.payload = msg->payload;
    const SimTime arrival =
        rt_.send(node_, member.node, e.encode(), msg->wire_bytes());
    ++rt_.stats.replica_messages;
    return arrival;
  }

  void receive_ack(std::uint64_t seq, int acker_slot, std::uint64_t acker_inc,
                   ThreadId stream_dst) {
    if (dead_) return;
    ++rt_.stats.acks;
    auto dit = unacked_.find(stream_dst);
    if (dit == unacked_.end()) return;
    auto eit = dit->second.find(seq);
    if (eit == dit->second.end()) return;
    eit->second.acked[acker_slot] = acker_inc;
    if (fully_acked(stream_dst, eit->second)) dit->second.erase(eit);
  }

  bool fully_acked(ThreadId dst, const Unacked& u) {
    const Group& g = rt_.group(dst);
    // A finished or lost destination will never ack again; drop the buffer.
    if (g.finished || g.lost) return true;
    bool any_alive = false;
    for (const Member& m : g.members) {
      if (!m.alive) {
        // A dead slot will be regenerated and must then be able to obtain
        // this message — keep it buffered until the replacement acks.
        if (rt_.config.regenerate) return false;
        continue;  // degradation mode: dead slots never come back
      }
      any_alive = true;
      auto it = u.acked.find(m.slot);
      if (it == u.acked.end() || it->second != m.incarnation) return false;
    }
    return any_alive;
  }

  void send_ack(const ReplyAddr& to, std::uint64_t seq) {
    WireEnvelope e;
    e.kind = FrameKind::kAck;
    e.src_node = node_;
    e.dst_node = to.node;
    e.src = {tid_, slot_, inc_};
    e.dst = to.addr;
    e.seq = seq;
    rt_.send(node_, to.node, e.encode(), rt_.config.ack_bytes);
  }

  void heartbeat_loop() {
    if (dead_ || finished_) return;
    WireEnvelope hb;
    hb.kind = FrameKind::kHeartbeat;
    hb.src_node = node_;
    hb.dst_node = rt_.detector_node;
    hb.src = {tid_, slot_, inc_};
    rt_.send(node_, rt_.detector_node, hb.encode(),
             rt_.config.heartbeat_bytes);
    ++rt_.stats.heartbeats;
    // The library's background machinery consumes a fixed CPU share per
    // replica; charge one heartbeat period's worth per beat.
    auto& node = rt_.cluster.node(node_);
    const double share = rt_.config.watchdog_cpu_share;
    if (share > 0.0) {
      const double flops = share / (1.0 - share) *
                           to_seconds(rt_.config.heartbeat_period) *
                           node.config().flops_per_second;
      node.submit_compute(flops, [] {});
    }
    node.run_after(rt_.config.heartbeat_period, [this] { heartbeat_loop(); });
  }

  void retransmit_loop() {
    if (dead_) return;
    scan_unacked();
    rt_.cluster.node(node_).run_after(rt_.config.retransmit_timeout / 2,
                                      [this] { retransmit_loop(); });
  }

  void scan_unacked() {
    const SimTime now_t = now();
    for (auto& [dst, entries] : unacked_) {
      for (auto it = entries.begin(); it != entries.end();) {
        Unacked& u = it->second;
        if (fully_acked(dst, u)) {
          it = entries.erase(it);
          continue;
        }
        // RTO from the expected arrival of the newest copy, doubled per
        // retransmission round (capped), so a slow acker is not flooded.
        const SimTime rto = rt_.config.retransmit_timeout
                            << std::min(u.attempts, 5);
        if (now_t - u.expected_arrival >= rto) {
          bool resent = false;
          for (Member* m : rt_.live_members(dst)) {
            auto ait = u.acked.find(m->slot);
            if (ait != u.acked.end() && ait->second == m->incarnation) {
              continue;  // this member already has it
            }
            u.expected_arrival = std::max(
                u.expected_arrival, send_copy(dst, it->first, u.msg, *m));
            ++rt_.stats.retransmits;
            resent = true;
          }
          if (resent) ++u.attempts;
        }
        ++it;
      }
    }
  }

  Runtime::Impl& rt_;
  ThreadId tid_;
  int slot_;
  std::uint64_t inc_;
  cluster::NodeId node_;
  std::unique_ptr<Actor> actor_;
  bool dead_ = false;
  bool finished_ = false;

  // Atomic message processing.
  std::deque<InboxEntry> inbox_;
  InboxEntry current_{};
  bool busy_ = false;
  bool in_handler_ = false;
  int pending_computes_ = 0;

  /// Message-boundary checkpoint, refreshed at the start of every message;
  /// serves snapshot requests that arrive mid-transition.
  struct Checkpoint {
    std::vector<std::uint8_t> actor_state;
    std::unordered_map<ThreadId, std::uint64_t> next_send_seq;
    std::unordered_map<ThreadId, std::map<std::uint64_t, Unacked>> unacked;
  };
  Checkpoint checkpoint_;

  // Receive-side protocol state (per sender logical thread).
  struct HeldCopy {
    std::shared_ptr<const Message> msg;
    ReplyAddr from;
  };
  std::unordered_map<ThreadId, std::uint64_t> admitted_;  ///< next to admit
  std::unordered_map<ThreadId, std::map<std::uint64_t, HeldCopy>> holdback_;

  // Send-side protocol state (per destination logical thread).
  std::unordered_map<ThreadId, std::uint64_t> next_send_seq_;
  std::unordered_map<ThreadId, std::map<std::uint64_t, Unacked>> unacked_;

  friend struct Runtime::Impl;
};

void Shell::send(ThreadId dst, Message msg) {
  if (dead_) return;
  auto shared = std::make_shared<const Message>(std::move(msg));
  const std::uint64_t seq = next_send_seq_[dst]++;
  if (slot_ == 0) ++rt_.stats.app_messages;

  if (rt_.config.resilient) {
    auto [it, inserted] =
        unacked_[dst].emplace(seq, Unacked{shared, now(), 0, {}});
    RIF_CHECK_MSG(inserted, "sequence number reused");
    for (Member* m : rt_.live_members(dst)) {
      it->second.expected_arrival = std::max(
          it->second.expected_arrival, send_copy(dst, seq, shared, *m));
    }
  } else {
    const auto members = rt_.live_members(dst);
    if (members.empty()) {
      RIF_LOG_WARN("scp", "send to dead thread " << dst << " dropped");
      return;
    }
    send_copy(dst, seq, shared, *members.front());
  }
}

void Shell::receive_app(ThreadId src, std::uint64_t seq,
                        std::shared_ptr<const Message> msg,
                        const ReplyAddr& reply_to) {
  if (dead_) return;
  if (!rt_.config.resilient) {
    admit(src, seq, std::move(msg));
    return;
  }

  // Admission is the durable-receipt point: the inbox travels inside state
  // snapshots, so an admitted message survives regeneration and can be
  // acknowledged immediately. Held-back (out-of-order) copies are NOT
  // acknowledged — the sender keeps retransmitting until the gap fills.
  std::uint64_t& admitted = admitted_[src];
  if (seq < admitted) {
    send_ack(reply_to, seq);  // duplicate of an admitted message: re-ack
    ++rt_.stats.duplicates_dropped;
    return;
  }
  if (seq > admitted) {
    holdback_[src].emplace(seq, HeldCopy{std::move(msg), reply_to});
    return;
  }
  send_ack(reply_to, seq);
  admit(src, seq, std::move(msg));
  ++admitted;
  auto hit = holdback_.find(src);
  if (hit != holdback_.end()) {
    auto& pending = hit->second;
    for (auto it = pending.begin();
         it != pending.end() && it->first == admitted;
         it = pending.erase(it)) {
      send_ack(it->second.from, it->first);
      admit(src, it->first, std::move(it->second.msg));
      ++admitted;
    }
  }
}

std::vector<std::uint8_t> Shell::snapshot() const {
  // While busy, serialize the checkpoint from the start of the in-flight
  // message and schedule that message for replay; otherwise use live state.
  const bool mid_message = busy_;
  Writer w;
  w.put_vector(mid_message ? checkpoint_.actor_state
                           : actor_->snapshot_state());
  // Admission watermarks (dedup state). Always current: admissions during
  // the in-flight message are covered because the inbox below carries them.
  w.put<std::uint64_t>(admitted_.size());
  for (const auto& [src, seq] : admitted_) {
    w.put<ThreadId>(src);
    w.put<std::uint64_t>(seq);
  }
  // Admitted-but-unprocessed inbox: acknowledged messages are durable state
  // and must survive regeneration. The in-flight message is replayed first.
  const std::uint64_t inbox_count = inbox_.size() + (mid_message ? 1 : 0);
  w.put<std::uint64_t>(inbox_count);
  auto put_entry = [&w](const InboxEntry& entry) {
    w.put<ThreadId>(entry.src);
    w.put<std::uint64_t>(entry.seq);
    w.put<std::uint32_t>(entry.msg->type);
    w.put<std::uint64_t>(entry.msg->declared_bytes);
    w.put_vector(entry.msg->payload);
  };
  if (mid_message) put_entry(current_);
  for (const auto& entry : inbox_) put_entry(entry);

  // Send counters and the retransmission buffer, as of the checkpoint (the
  // replayed message deterministically re-issues anything sent since).
  const auto& send_seq = mid_message ? checkpoint_.next_send_seq
                                     : next_send_seq_;
  const auto& unacked = mid_message ? checkpoint_.unacked : unacked_;
  w.put<std::uint64_t>(send_seq.size());
  for (const auto& [dst, seq] : send_seq) {
    w.put<ThreadId>(dst);
    w.put<std::uint64_t>(seq);
  }
  std::uint64_t n_unacked = 0;
  for (const auto& [dst, entries] : unacked) n_unacked += entries.size();
  w.put<std::uint64_t>(n_unacked);
  for (const auto& [dst, entries] : unacked) {
    for (const auto& [seq, u] : entries) {
      w.put<ThreadId>(dst);
      w.put<std::uint64_t>(seq);
      w.put<std::uint32_t>(u.msg->type);
      w.put<std::uint64_t>(u.msg->declared_bytes);
      w.put_vector(u.msg->payload);
    }
  }
  return std::move(w).take();
}

void Shell::restore(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  actor_->restore_state(r.get_vector<std::uint8_t>());
  const auto n_adm = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_adm; ++i) {
    const auto src = r.get<ThreadId>();
    admitted_[src] = r.get<std::uint64_t>();
  }
  const auto n_inbox = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_inbox; ++i) {
    InboxEntry entry;
    entry.src = r.get<ThreadId>();
    entry.seq = r.get<std::uint64_t>();
    auto msg = std::make_shared<Message>();
    msg->type = r.get<std::uint32_t>();
    msg->declared_bytes = r.get<std::uint64_t>();
    msg->payload = r.get_vector<std::uint8_t>();
    entry.msg = std::move(msg);
    inbox_.push_back(std::move(entry));
  }
  const auto n_send = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_send; ++i) {
    const auto dst = r.get<ThreadId>();
    next_send_seq_[dst] = r.get<std::uint64_t>();
  }
  const auto n_unacked = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n_unacked; ++i) {
    const auto dst = r.get<ThreadId>();
    const auto seq = r.get<std::uint64_t>();
    auto msg = std::make_shared<Message>();
    msg->type = r.get<std::uint32_t>();
    msg->declared_bytes = r.get<std::uint64_t>();
    msg->payload = r.get_vector<std::uint8_t>();
    unacked_[dst].emplace(seq, Unacked{std::move(msg), now(), 0, {}});
  }
}

// ---------------------------------------------------------------------------
// Impl methods
// ---------------------------------------------------------------------------

Shell* Runtime::Impl::make_shell(ThreadId tid, int slot, std::uint64_t inc,
                                 cluster::NodeId node,
                                 std::unique_ptr<Actor> actor) {
  shells.push_back(
      std::make_unique<Shell>(*this, tid, slot, inc, node, std::move(actor)));
  placement->add_load(node);
  return shells.back().get();
}

Shell* Runtime::Impl::route(const WireAddr& addr) {
  if (addr.tid < 0 || static_cast<std::size_t>(addr.tid) >= groups.size()) {
    return nullptr;
  }
  Group& g = groups[addr.tid];
  if (addr.slot < 0 || addr.slot >= static_cast<int>(g.members.size())) {
    return nullptr;
  }
  Member& m = g.members[addr.slot];
  // An incarnation mismatch means the slot was reincarnated since the frame
  // was sent; the frame belongs to the previous (dead) shell and is dropped.
  if (m.shell == nullptr || m.incarnation != addr.incarnation) return nullptr;
  return m.shell;
}

void Runtime::Impl::deliver(cluster::NodeId /*dst_node*/,
                            std::vector<std::uint8_t> frame) {
  WireEnvelope e = WireEnvelope::decode(frame);
  switch (e.kind) {
    case FrameKind::kApp: {
      Shell* target = route(e.dst);
      if (target == nullptr) return;
      target->receive_app(e.src.tid, e.seq,
                          std::make_shared<const Message>(
                              std::move(e).to_message()),
                          ReplyAddr{e.src_node, e.src});
      return;
    }
    case FrameKind::kAck: {
      Shell* target = route(e.dst);
      if (target == nullptr) return;
      target->receive_ack(e.seq, e.src.slot, e.src.incarnation, e.src.tid);
      return;
    }
    case FrameKind::kHeartbeat:
      on_heartbeat(e.src.tid, e.src.slot, e.src.incarnation);
      return;
    case FrameKind::kSnapshotRequest:
      handle_snapshot_request(e);
      return;
    case FrameKind::kStateInstall:
      handle_state_install(std::move(e));
      return;
    default:
      // Worker-plane frames (kHello..) never target the actor runtime.
      RIF_LOG_WARN("scp", "dropping frame of kind "
                              << static_cast<std::uint32_t>(e.kind));
      return;
  }
}

void Runtime::Impl::handle_snapshot_request(const WireEnvelope& e) {
  Shell* src_shell = route(e.dst);
  if (src_shell == nullptr || src_shell->dead()) return;
  Reader r(e.payload);
  const auto repair_slot = r.get<std::int32_t>();
  const auto new_inc = r.get<std::uint64_t>();
  const auto target = r.get<cluster::NodeId>();
  const ThreadId tid = e.dst.tid;
  src_shell->request_snapshot(
      [this, tid, repair_slot, new_inc, target,
       src_shell](std::vector<std::uint8_t> state) {
        ship_state(tid, repair_slot, new_inc, target, src_shell,
                   std::move(state), /*migration=*/false);
      });
}

void Runtime::Impl::ship_state(ThreadId tid, int slot, std::uint64_t new_inc,
                               cluster::NodeId target, Shell* src_shell,
                               std::vector<std::uint8_t> state,
                               bool migration) {
  // Serializing the snapshot takes time proportional to its size, but runs
  // in the library's background machinery (whose CPU share is already
  // charged by the watchdog model) — it must not queue behind a long
  // application computation, or recovery would stall for the length of a
  // work unit.
  const std::uint64_t wire =
      std::max<std::uint64_t>(state.size(), src_shell->declared_state_bytes());
  auto& src_node = cluster.node(src_shell->node());
  const SimTime serialize_time =
      src_node.compute_time(static_cast<double>(wire) * 0.5);
  src_node.run_after(
      serialize_time,
      [this, tid, slot, new_inc, target, src_shell, wire, migration,
       state = std::move(state)]() mutable {
        if (src_shell->dead()) return;
        stats.state_transfer_bytes += wire;
        cluster.trace().record(
            {sim().now(), sim::TraceKind::kReplicaStateTransferred, tid, slot,
             static_cast<std::int64_t>(wire), migration ? "migration" : ""});
        WireEnvelope install;
        install.kind = FrameKind::kStateInstall;
        install.src_node = src_shell->node();
        install.dst_node = target;
        install.dst = {tid, slot, new_inc};
        install.flag = migration ? 1 : 0;
        install.payload = std::move(state);
        send(src_shell->node(), target, install.encode(), wire);
      });
}

void Runtime::Impl::handle_state_install(WireEnvelope e) {
  const ThreadId tid = e.dst.tid;
  const int slot = e.dst.slot;
  const std::uint64_t inc = e.dst.incarnation;
  if (e.flag == 0) {
    install_regenerated(tid, slot, inc, e.dst_node, std::move(e.payload));
    return;
  }
  // Migration delivery: same guards the migrate() closure used to apply.
  Group& g = group(tid);
  if (g.finished || g.lost) return;
  if (!cluster.node(e.dst_node).alive()) {
    g.regenerating[slot] = false;
    return;
  }
  if (g.members[slot].incarnation >= inc) return;
  install_replica(tid, slot, inc, e.dst_node, std::move(e.payload),
                  /*migration=*/true);
}

void Runtime::Impl::start_detector() {
  if (!config.resilient) return;
  cluster.node(detector_node)
      .run_after(config.failure_timeout / 3, [this] { detector_check(); });
}

void Runtime::Impl::detector_check() {
  const SimTime now = sim().now();
  // Index loop: declaring a group dead can re-enter the service's
  // scheduler (on_group_lost -> admit next job -> dynamic spawn), which
  // appends groups and would invalidate range-for iterators.
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    Group& g = groups[gi];
    if (g.finished || g.lost) continue;
    for (Member& m : g.members) {
      if (!m.alive) continue;
      const auto key = std::make_pair(g.tid, m.slot);
      auto it = last_heartbeat.find(key);
      // A member never heard from gets a full timeout from t=0.
      const SimTime last =
          (it != last_heartbeat.end() &&
           it->second.incarnation == m.incarnation)
              ? it->second.last_heard
              : 0;
      if (now - last > config.failure_timeout) declare_dead(g.tid, m.slot);
    }
  }
  if (!stop_requested) {
    cluster.node(detector_node)
        .run_after(config.failure_timeout / 3, [this] { detector_check(); });
  }
}

void Runtime::Impl::on_heartbeat(ThreadId tid, int slot, std::uint64_t inc) {
  auto& rec = last_heartbeat[{tid, slot}];
  if (inc >= rec.incarnation) {
    rec.incarnation = inc;
    rec.last_heard = sim().now();
  }
}

void Runtime::Impl::declare_dead(ThreadId tid, int slot) {
  Group& g = group(tid);
  Member& m = g.members[slot];
  if (!m.alive) return;
  ++stats.failures_detected;
  cluster.trace().record({sim().now(), sim::TraceKind::kFailureDetected, tid,
                          slot, static_cast<std::int64_t>(m.incarnation),
                          {}});
  RIF_LOG_INFO("scp", "detected failure of thread "
                          << tid << " slot " << slot << " on node " << m.node);
  m.alive = false;
  m.shell->kill();
  placement->remove_load(m.node);
  ++g.epoch;

  if (live_members(tid).empty()) {
    mark_lost(g);
    return;
  }
  if (config.regenerate) try_regenerate(tid, slot);
}

void Runtime::Impl::mark_lost(Group& g) {
  if (g.lost || g.finished) return;
  g.lost = true;
  ++stats.groups_lost;
  RIF_LOG_WARN("scp", "replica group for thread " << g.tid << " (" << g.name
                                                  << ") lost");
  if (self.on_group_lost_) self.on_group_lost_(g.tid);
}

void Runtime::Impl::try_regenerate(ThreadId tid, int slot) {
  Group& g = group(tid);
  if (g.finished || g.lost || g.regenerating[slot]) return;

  const auto survivors = live_members(tid);
  if (survivors.empty()) {
    mark_lost(g);
    return;
  }
  Member* survivor = survivors.front();  // lowest live slot

  // Choose a host carrying no member of this group. The detector node is
  // also excluded: it hosts the manager/sensor, which the paper keeps off
  // the worker pool. A group with a placement domain (a service job's
  // leased nodes) never regenerates outside it.
  std::vector<cluster::NodeId> excluded{detector_node};
  for (const Member& m : g.members) {
    if (m.alive) excluded.push_back(m.node);
  }
  exclude_outside_domain(g, excluded);
  const cluster::NodeId target = placement->pick(excluded);
  if (target == cluster::kNoNode) {
    RIF_LOG_WARN("scp", "no node available to regenerate thread "
                            << tid << " slot " << slot << "; will retry");
    return;  // detector loop retries on next check
  }

  g.regenerating[slot] = true;
  const std::uint64_t new_inc = g.members[slot].incarnation + 1;

  // Ask the survivor for a quiescent-point snapshot; it ships the state
  // directly to the target node, where the runtime installs the replica
  // (see handle_snapshot_request / ship_state / handle_state_install).
  Shell* src_shell = survivor->shell;
  WireEnvelope req;
  req.kind = FrameKind::kSnapshotRequest;
  req.src_node = detector_node;
  req.dst_node = survivor->node;
  req.dst = {tid, survivor->slot, survivor->incarnation};
  Writer body;
  body.put<std::int32_t>(slot);
  body.put<std::uint64_t>(new_inc);
  body.put<cluster::NodeId>(target);
  req.payload = std::move(body).take();
  send(detector_node, survivor->node, req.encode(), kControlBytes);

  // The attempt expires if the state never arrives (e.g. the survivor died
  // mid-transfer); the detector loop then retries with another survivor.
  // The deadline budgets for the transfer itself at a conservatively slow
  // rate, so a large state is not re-requested while still on the wire.
  const SimTime attempt_deadline =
      config.state_request_timeout +
      from_seconds(static_cast<double>(src_shell->declared_state_bytes()) /
                   config.state_transfer_min_bandwidth);
  sim().schedule_after(
      attempt_deadline, [this, tid, slot, new_inc] {
        Group& gg = group(tid);
        if (gg.regenerating[slot] && gg.members[slot].incarnation < new_inc) {
          gg.regenerating[slot] = false;
          if (!gg.finished && !gg.lost && config.regenerate &&
              !gg.members[slot].alive) {
            try_regenerate(tid, slot);
          }
        }
      });
}

void Runtime::Impl::install_regenerated(ThreadId tid, int slot,
                                        std::uint64_t inc,
                                        cluster::NodeId node,
                                        std::vector<std::uint8_t> state) {
  Group& g = group(tid);
  if (g.finished || g.lost) return;
  if (!cluster.node(node).alive()) {  // target died while state in flight
    g.regenerating[slot] = false;
    return;
  }
  if (g.members[slot].alive) {  // a racing attempt already repaired the slot
    g.regenerating[slot] = false;
    return;
  }
  if (g.members[slot].incarnation >= inc) return;  // stale attempt
  install_replica(tid, slot, inc, node, std::move(state),
                  /*migration=*/false);
}

void Runtime::Impl::install_replica(ThreadId tid, int slot, std::uint64_t inc,
                                    cluster::NodeId node,
                                    std::vector<std::uint8_t> state,
                                    bool migration) {
  Group& g = group(tid);
  Member& old_member = g.members[slot];
  if (migration && old_member.alive) {
    // Retire the source copy; its unfinished traffic is covered by the
    // snapshot (inbox + retransmission buffer travel with the state).
    old_member.shell->kill();
    placement->remove_load(old_member.node);
    old_member.alive = false;
  }

  Shell* shell = make_shell(tid, slot, inc, node, g.factory());
  shell->restore(state);
  g.members[slot] = Member{slot, inc, node, shell, true};
  g.regenerating[slot] = false;
  ++g.epoch;
  if (migration) {
    ++stats.replicas_migrated;
  } else {
    ++stats.replicas_regenerated;
  }
  cluster.trace().record({sim().now(), sim::TraceKind::kReplicaSpawned, tid,
                          slot, static_cast<std::int64_t>(node),
                          migration ? "migrated" : "regenerated"});
  RIF_LOG_INFO("scp", (migration ? "migrated" : "regenerated")
                          << " thread " << tid << " slot " << slot
                          << " to node " << node << " (incarnation " << inc
                          << ")");
  on_heartbeat(tid, slot, inc);  // fresh grace period
  shell->start(/*run_on_start=*/false);
}

// ---------------------------------------------------------------------------
// Runtime public API
// ---------------------------------------------------------------------------

Runtime::Runtime(cluster::Cluster& cluster, net::Network& network,
                 RuntimeConfig config)
    : cluster_(cluster), network_(network), config_(config) {
  impl_ = std::make_unique<Impl>(*this);
}

Runtime::~Runtime() = default;

ThreadId Runtime::spawn(const std::string& name, ActorFactory factory,
                        int replication,
                        const std::vector<cluster::NodeId>& placement) {
  SpawnOptions options;
  options.replication = replication;
  options.placement = placement;
  return spawn(name, std::move(factory), std::move(options));
}

ThreadId Runtime::spawn(const std::string& name, ActorFactory factory,
                        SpawnOptions options) {
  RIF_CHECK(options.replication >= 1);
  RIF_CHECK_MSG(config_.resilient || options.replication == 1,
                "replication requires resilient mode");

  const auto tid = static_cast<ThreadId>(impl_->groups.size());
  Group g;
  g.tid = tid;
  g.name = name;
  g.factory = std::move(factory);
  g.replication = options.replication;
  g.job = options.job;
  g.domain = options.domain;
  g.regenerating.assign(options.replication, false);

  std::vector<cluster::NodeId> hosts = options.placement;
  std::vector<cluster::NodeId> used = hosts;
  impl_->exclude_outside_domain(g, used);
  while (static_cast<int>(hosts.size()) < options.replication) {
    const cluster::NodeId n = impl_->spawn_rr->pick(used);
    RIF_CHECK_MSG(n != cluster::kNoNode, "not enough nodes for replication");
    hosts.push_back(n);
    used.push_back(n);
  }
  RIF_CHECK(static_cast<int>(hosts.size()) == options.replication);
  for (int slot = 0; slot < options.replication; ++slot) {
    Shell* shell = impl_->make_shell(tid, slot, 0, hosts[slot], g.factory());
    g.members.push_back(Member{slot, 0, hosts[slot], shell, true});
  }
  impl_->groups.push_back(std::move(g));

  if (impl_->started) {
    // Dynamic spawn into a running cluster: seed the failure detector with a
    // fresh grace period (a full timeout "from t=0" would declare any thread
    // spawned later than failure_timeout dead before its first heartbeat),
    // then activate the replicas immediately.
    Group& live = impl_->groups.back();
    for (Member& m : live.members) {
      impl_->on_heartbeat(tid, m.slot, m.incarnation);
    }
    for (Member& m : live.members) {
      m.shell->start(/*run_on_start=*/true);
    }
  }
  return tid;
}

ThreadId Runtime::next_thread_id() const {
  return static_cast<ThreadId>(impl_->groups.size());
}

JobId Runtime::job_of(ThreadId tid) const { return impl_->group(tid).job; }

std::vector<ThreadId> Runtime::threads_of_job(JobId job) const {
  std::vector<ThreadId> out;
  for (const Group& g : impl_->groups) {
    if (g.job == job) out.push_back(g.tid);
  }
  return out;
}

int Runtime::retire_job(JobId job) {
  int killed = 0;
  for (Group& g : impl_->groups) {
    if (g.job != job) continue;
    g.finished = true;
    for (Member& m : g.members) {
      if (!m.alive) continue;
      m.alive = false;
      m.shell->kill();
      impl_->placement->remove_load(m.node);
      ++killed;
    }
  }
  return killed;
}

void Runtime::start() {
  RIF_CHECK_MSG(!impl_->started, "start called twice");
  impl_->started = true;
  if (!impl_->groups.empty()) {
    impl_->detector_node = impl_->groups.front().members.front().node;
  }
  impl_->start_detector();
  for (Group& g : impl_->groups) {
    for (Member& m : g.members) {
      m.shell->start(/*run_on_start=*/true);
    }
  }
}

bool Runtime::run(SimTime deadline) {
  auto& sim = cluster_.simulation();
  while (!impl_->stop_requested) {
    if (sim.now() >= deadline) break;
    if (!sim.step()) break;
  }
  return impl_->stop_requested;
}

std::vector<ReplicaInfo> Runtime::members_of(ThreadId tid) const {
  std::vector<ReplicaInfo> out;
  for (const Member& m : impl_->group(tid).members) {
    out.push_back(ReplicaInfo{m.slot, m.incarnation, m.node, m.alive});
  }
  return out;
}

bool Runtime::migrate(ThreadId tid, int slot, cluster::NodeId target) {
  Runtime::Impl& impl = *impl_;
  if (!config_.resilient || !impl.started) return false;
  if (tid < 0 || static_cast<std::size_t>(tid) >= impl.groups.size()) {
    return false;
  }
  Group& g = impl.group(tid);
  if (g.finished || g.lost) return false;
  if (slot < 0 || slot >= static_cast<int>(g.members.size())) return false;
  Member& m = g.members[slot];
  if (!m.alive || g.regenerating[slot]) return false;
  if (target == m.node || !cluster_.node(target).alive()) return false;
  if (target == impl.detector_node) return false;
  if (!g.domain.empty() &&
      std::find(g.domain.begin(), g.domain.end(), target) == g.domain.end()) {
    return false;  // outside the group's placement domain
  }
  for (const Member& other : g.members) {
    if (other.alive && other.node == target) return false;
  }

  g.regenerating[slot] = true;  // block concurrent regeneration/migration
  Shell* source = m.shell;
  const std::uint64_t new_inc = m.incarnation + 1;
  source->request_snapshot([&impl, tid, slot, new_inc, target,
                            source](std::vector<std::uint8_t> state) {
    impl.ship_state(tid, slot, new_inc, target, source, std::move(state),
                    /*migration=*/true);
  });

  // Backstop: if the move never lands (source or target died mid-flight),
  // release the slot so failure detection and regeneration can take over.
  const SimTime deadline =
      config_.state_request_timeout +
      from_seconds(static_cast<double>(source->declared_state_bytes()) /
                   config_.state_transfer_min_bandwidth);
  impl.sim().schedule_after(deadline, [&impl, tid, slot, new_inc] {
    Group& gg = impl.group(tid);
    if (gg.regenerating[slot] && gg.members[slot].incarnation < new_inc) {
      gg.regenerating[slot] = false;
    }
  });
  return true;
}

int Runtime::evacuate_node(cluster::NodeId node) {
  Runtime::Impl& impl = *impl_;
  int initiated = 0;
  for (Group& g : impl.groups) {
    if (g.finished || g.lost) continue;
    for (Member& m : g.members) {
      if (!m.alive || m.node != node) continue;
      std::vector<cluster::NodeId> excluded{impl.detector_node, node};
      for (const Member& other : g.members) {
        if (other.alive) excluded.push_back(other.node);
      }
      impl.exclude_outside_domain(g, excluded);
      const cluster::NodeId target = impl.placement->pick(excluded);
      if (target == cluster::kNoNode) continue;
      if (migrate(g.tid, m.slot, target)) ++initiated;
    }
  }
  return initiated;
}

bool Runtime::all_groups_alive() const {
  for (const Group& g : impl_->groups) {
    if (g.lost) return false;
    if (g.finished) continue;
    bool any = false;
    for (const Member& m : g.members) any = any || m.alive;
    if (!any) return false;
  }
  return true;
}

}  // namespace rif::scp
