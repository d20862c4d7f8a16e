// The scp runtime: logical threads, replication groups, failure detection
// and dynamic regeneration on the simulated cluster.
//
// Protocol summary (what the paper calls "the more complex communication
// protocols required to achieve redundancy"):
//
//  * A logical thread T with replication level r is realized by r replica
//    shells placed on distinct nodes. Every replica runs the same actor
//    code on the same inputs.
//  * A logical send T→U is fanned out point-to-point from every live
//    replica of T to every live replica of U (active replication). Each
//    sender replica stamps a per-destination sequence number; since
//    replicas are deterministic, all copies of a logical message carry the
//    same sequence number and receivers deduplicate on (T, seq).
//  * Receivers deliver in per-sender sequence order (holdback queue for
//    gaps) and acknowledge every accepted or duplicate sequence number back
//    to the sending replica. Senders hold unacknowledged messages in a
//    retransmission buffer and periodically resend to group members that
//    have not acknowledged — including members regenerated under a new
//    incarnation, which is how in-flight traffic survives reconfiguration.
//  * Every replica heartbeats a failure detector hosted on node 0. When a
//    replica misses `failure_timeout` of heartbeats it is declared dead;
//    the detector requests a state snapshot from a surviving group member,
//    ships it to a node chosen by the placement policy (never a node
//    already hosting a member of the same group), installs a new replica
//    under a bumped incarnation, and the group is whole again. The
//    snapshot carries both application state and protocol watermarks, so
//    the regenerated replica neither re-processes old messages nor misses
//    new ones.
//
// Deliberate modelling simplifications (documented in DESIGN.md): the
// name-service registry is an always-consistent directory (the paper
// assumes a trusted resource manager); replicas see per-sender FIFO order,
// not a total order across senders — sufficient for manager/worker
// topologies where each pairwise conversation is independent, and the
// fusion application only uses such topologies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "net/network.h"
#include "scp/actor.h"
#include "scp/types.h"
#include "support/rng.h"
#include "support/time.h"

namespace rif::scp {

struct RuntimeConfig {
  /// Enable the group protocol: multicast fan-out, acks, retransmission,
  /// heartbeats, regeneration. Off = plain direct message passing (the
  /// paper's non-resilient baseline).
  bool resilient = false;
  /// When resilient, regenerate lost replicas (the paper's contribution).
  /// Off = classic primary/backup graceful degradation (Fig. 1 strawman).
  bool regenerate = true;

  SimTime heartbeat_period = from_millis(250);
  SimTime failure_timeout = from_millis(900);
  SimTime retransmit_timeout = from_millis(400);
  /// Base deadline for a regeneration attempt; the runtime adds the time a
  /// conservatively slow link would need for the state itself, so big
  /// worker states do not make attempts expire (and thrash) mid-transfer.
  SimTime state_request_timeout = from_millis(800);
  double state_transfer_min_bandwidth = 1.0e6;  ///< bytes/s, conservative

  /// CPU cost charged per delivered message (protocol dispatch).
  double dispatch_flops = 3.0e3;
  /// CPU cost charged per ack / heartbeat processed.
  double control_dispatch_flops = 5.0e2;
  /// Sender-side CPU charged per physical copy in resilient mode: the
  /// group-communication layer marshals and enqueues each copy separately
  /// (the paper notes its protocols are "as yet ... not optimized").
  double marshal_flops_base = 5.0e4;
  double marshal_flops_per_byte = 2.0;
  /// Continuous CPU share consumed per replica by the resiliency library's
  /// background machinery (membership, heartbeat handling, holdback and
  /// retransmission bookkeeping). With two co-resident replicas this is
  /// the uniform "~10% plus the cost of replication" overhead the paper
  /// reports. Charged only in resilient mode.
  double watchdog_cpu_share = 0.07;
  std::uint64_t ack_bytes = 64;
  std::uint64_t heartbeat_bytes = 64;

  /// Seed for per-logical-thread actor RNG streams.
  std::uint64_t seed = 42;
};

struct ReplicaInfo {
  int slot = -1;
  std::uint64_t incarnation = 0;
  cluster::NodeId node = cluster::kNoNode;
  bool alive = false;
};

/// Placement and grouping options for spawn(). The defaults reproduce the
/// historical behaviour: one replica, round-robin placement over the whole
/// cluster, no job association.
struct SpawnOptions {
  int replication = 1;
  /// Explicit initial placement (one node per replica); round-robin fills
  /// any remainder.
  std::vector<cluster::NodeId> placement;
  /// When non-empty, the group is confined to these nodes: round-robin
  /// fill, regeneration and evacuation never place a replica outside the
  /// set. This is how a multi-tenant service pins a job's actors to the
  /// worker nodes leased to that job.
  std::vector<cluster::NodeId> domain;
  /// Job this thread belongs to (kNoJob = standalone).
  JobId job = kNoJob;
};

class Runtime {
 public:
  /// Run the protocol over the virtual-time network. Every hop the runtime
  /// takes travels as an encoded scp::WireEnvelope frame plus an explicit
  /// byte charge for the network model.
  Runtime(cluster::Cluster& cluster, net::Network& network,
          RuntimeConfig config = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Create a logical thread backed by `replication` replicas. Replicas are
  /// placed on distinct nodes via `placement` if given, else round-robin
  /// over the cluster. Before start() the replicas are activated by start();
  /// after start() they are activated immediately (dynamic spawn — how a
  /// long-lived service adds a new job's topology to a running cluster).
  ThreadId spawn(const std::string& name, ActorFactory factory,
                 int replication = 1,
                 const std::vector<cluster::NodeId>& placement = {});

  /// Spawn with full options (replication, placement, domain, job id).
  ThreadId spawn(const std::string& name, ActorFactory factory,
                 SpawnOptions options);

  /// Thread id the next spawn() will return. Lets a job runner precompute
  /// the ids of a topology it is about to spawn (actors need the manager's
  /// id before the manager exists).
  [[nodiscard]] ThreadId next_thread_id() const;

  /// Job a logical thread was spawned under (kNoJob if standalone).
  [[nodiscard]] JobId job_of(ThreadId tid) const;

  /// Logical threads spawned under `job`, in spawn order.
  [[nodiscard]] std::vector<ThreadId> threads_of_job(JobId job) const;

  /// Forcibly retire every group of `job`: mark the groups finished and
  /// kill all live replicas. The service control plane calls this when a
  /// job completes (its actors are quiescent) or is abandoned after a
  /// group loss, so a job never leaves actors heartbeating — or replicas
  /// regenerating — on nodes that have been re-leased to another tenant.
  /// Returns the number of replicas killed.
  int retire_job(JobId job);

  /// Deliver on_start to every replica and start protocol timers.
  void start();

  /// Drive the simulation until shutdown_runtime() is called, the event
  /// queue drains, or virtual `deadline` passes. Returns true if shutdown
  /// was requested (i.e. the application completed).
  bool run(SimTime deadline = kSimTimeNever);

  /// Callback fired when a whole replica group is lost (all members dead
  /// and regeneration impossible/disabled).
  void set_on_group_lost(std::function<void(ThreadId)> fn) {
    on_group_lost_ = std::move(fn);
  }

  [[nodiscard]] const ProtocolStats& stats() const { return stats_; }
  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

  /// Current membership of a logical thread's replica group (tests/benches).
  [[nodiscard]] std::vector<ReplicaInfo> members_of(ThreadId tid) const;

  /// True if every spawned group still has at least one live replica.
  [[nodiscard]] bool all_groups_alive() const;

  /// Proactively move a live replica to `target` — the paper's
  /// attack-assessment-driven mobility (§2: threads "highly mobile, moving
  /// from one place in the network to another"). The replica's checkpoint
  /// is shipped to the target, installed under a new incarnation, and the
  /// old copy retired; in-flight traffic is recovered by the normal
  /// retransmission path. Resilient mode only. Returns false if the move
  /// is not admissible (dead slot, dead/occupied target, transition in
  /// progress, the detector host).
  bool migrate(ThreadId tid, int slot, cluster::NodeId target);

  /// Move every replica hosted on `node` to placement-chosen safe hosts
  /// (evacuation of a network zone believed to be under attack). Returns
  /// the number of migrations initiated.
  int evacuate_node(cluster::NodeId node);

 private:
  friend class Shell;
  friend class Detector;
  struct Impl;
  std::unique_ptr<Impl> impl_;

  cluster::Cluster& cluster_;
  net::Network& network_;
  RuntimeConfig config_;
  ProtocolStats stats_;
  std::function<void(ThreadId)> on_group_lost_;
};

}  // namespace rif::scp
