// One-call runner for a distributed fusion experiment.
//
// Builds the virtual cluster (manager node + P worker nodes), the network
// (LAN or SMP model), the scp runtime, the actor topology (manager
// unreplicated — it represents the sensor, as in the paper's evaluation —
// and P workers at the configured replication level, replicas co-resident
// round-robin on the worker nodes exactly as the paper ran level-2
// replication on its 16 workstations), optional failure injection, then
// runs to completion and reports.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/failure_injector.h"
#include "core/distributed/fusion_actors.h"
#include "net/network.h"
#include "scp/runtime.h"
#include "support/time.h"

namespace rif::core {

enum class NetworkKind { kLan, kSharedBus, kSmp };

struct FusionJobConfig {
  int workers = 4;
  /// Sub-cubes = workers * tiles_per_worker (the Fig. 5 granularity knob).
  int tiles_per_worker = 2;
  /// Worker replication level (1 = no replication).
  int replication = 1;
  /// Enable the resiliency protocol (acks, heartbeats, regeneration).
  bool resilient = false;
  /// When resilient: regenerate lost replicas (off = graceful degradation).
  bool regenerate = true;

  ExecutionMode mode = ExecutionMode::kCostOnly;
  hsi::CubeShape shape{320, 320, 105};
  /// Required in Full mode; must outlive the call.
  const hsi::ImageCube* cube = nullptr;

  double screening_threshold = 0.05;
  int output_components = 3;
  CostModelParams cost;

  NetworkKind network = NetworkKind::kLan;
  net::LanConfig lan;
  net::SmpConfig smp;
  cluster::NodeConfig node;
  scp::RuntimeConfig runtime;  ///< resilient/regenerate fields are overridden

  /// Crash script on the virtual timeline (node ids: 0 = manager,
  /// 1..workers = worker nodes).
  std::vector<cluster::FailureEvent> failures;

  /// Attack warnings: at each (time, node) the runtime evacuates the node's
  /// replicas to safe hosts *before* any strike lands — the paper's
  /// attack-assessment-driven mobility. Requires resilient mode.
  struct EvacuationOrder {
    SimTime time = 0;
    cluster::NodeId node = cluster::kNoNode;
  };
  std::vector<EvacuationOrder> evacuations;

  /// Abort the run if virtual time exceeds this (hang detector).
  SimTime deadline = from_seconds(100000.0);
};

struct FusionReport {
  bool completed = false;
  double elapsed_seconds = 0.0;
  JobOutcome outcome;
  scp::ProtocolStats protocol;
  net::NetworkStats network;
  int crashes_injected = 0;
  std::uint64_t sim_events = 0;
  double total_flops_charged = 0.0;
};

FusionReport run_fusion_job(const FusionJobConfig& config);

/// Build the network model a FusionJobConfig asks for over `cluster`.
std::unique_ptr<net::Network> make_network(cluster::Cluster& cluster,
                                           NetworkKind kind,
                                           const net::LanConfig& lan,
                                           const net::SmpConfig& smp);

/// Logical thread ids of one spawned fusion topology.
struct FusionTopology {
  scp::ThreadId manager = scp::kNoThread;
  std::vector<scp::ThreadId> workers;
};

/// One fusion job instantiated against an *existing* cluster + runtime —
/// the unit a multi-tenant service schedules. Owns the per-job state the
/// actors reference (parameters, outcome), so it must outlive the runtime
/// activity of the job; run_fusion_job() and FusionService both build on it.
class FusionJobInstance {
 public:
  explicit FusionJobInstance(const FusionJobConfig& config);
  FusionJobInstance(const FusionJobInstance&) = delete;
  FusionJobInstance& operator=(const FusionJobInstance&) = delete;

  /// Spawn the manager on `manager_node` and `config.workers` worker groups
  /// on `worker_nodes` (one worker per node; replicas co-resident
  /// round-robin, confined to `worker_nodes` for regeneration). When
  /// `on_complete` is given the job runs in service mode: the runtime
  /// survives the job and the callback fires at virtual completion time.
  /// Callable before or after Runtime::start() (dynamic spawn).
  FusionTopology spawn(scp::Runtime& runtime, cluster::NodeId manager_node,
                       const std::vector<cluster::NodeId>& worker_nodes,
                       scp::JobId job = scp::kNoJob,
                       std::function<void()> on_complete = {});

  [[nodiscard]] const FusionJobConfig& config() const { return config_; }
  [[nodiscard]] const JobOutcome& outcome() const { return outcome_; }
  /// Move the outcome out (e.g. into a report) once the job is finished —
  /// in Full mode it carries the composite image, which is worth not
  /// copying. The instance must be done producing into it.
  [[nodiscard]] JobOutcome take_outcome() { return std::move(outcome_); }
  [[nodiscard]] const FusionTopology& topology() const { return topology_; }

 private:
  FusionJobConfig config_;
  FusionParams params_;
  JobOutcome outcome_;
  FusionTopology topology_;
};

}  // namespace rif::core
