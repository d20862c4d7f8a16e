#include "core/distributed/fusion_job.h"

#include <memory>
#include <string>
#include <utility>

#include "sim/simulation.h"
#include "support/check.h"

namespace rif::core {

std::unique_ptr<net::Network> make_network(cluster::Cluster& cluster,
                                           NetworkKind kind,
                                           const net::LanConfig& lan,
                                           const net::SmpConfig& smp) {
  switch (kind) {
    case NetworkKind::kLan:
      return std::make_unique<net::LanNetwork>(cluster, lan);
    case NetworkKind::kSharedBus:
      return std::make_unique<net::SharedBusNetwork>(cluster, lan);
    case NetworkKind::kSmp:
      return std::make_unique<net::SmpNetwork>(cluster, smp);
  }
  RIF_CHECK_MSG(false, "unknown network kind");
  return nullptr;
}

FusionJobInstance::FusionJobInstance(const FusionJobConfig& config)
    : config_(config) {
  RIF_CHECK(config_.workers >= 1);
  RIF_CHECK(config_.tiles_per_worker >= 1);
  RIF_CHECK(config_.replication >= 1);
  RIF_CHECK(config_.mode == ExecutionMode::kCostOnly ||
            config_.cube != nullptr);

  params_.mode = config_.mode;
  params_.shape = config_.shape;
  params_.workers = config_.workers;
  params_.total_tiles = config_.workers * config_.tiles_per_worker;
  params_.screening_threshold = config_.screening_threshold;
  params_.output_components = config_.output_components;
  params_.cost = config_.cost;
}

FusionTopology FusionJobInstance::spawn(
    scp::Runtime& runtime, cluster::NodeId manager_node,
    const std::vector<cluster::NodeId>& worker_nodes, scp::JobId job,
    std::function<void()> on_complete) {
  RIF_CHECK_MSG(topology_.manager == scp::kNoThread, "job already spawned");
  RIF_CHECK_MSG(static_cast<int>(worker_nodes.size()) == config_.workers,
                "need exactly one worker node per worker");

  // Thread ids are assigned in spawn order; precompute them so the actors
  // know the topology before it exists.
  const scp::ThreadId base = runtime.next_thread_id();
  params_.manager_tid = base;
  params_.worker_tids.clear();
  for (int w = 0; w < config_.workers; ++w) {
    params_.worker_tids.push_back(base + 1 + w);
  }

  scp::SpawnOptions mgr_opts;
  mgr_opts.replication = 1;
  mgr_opts.placement = {manager_node};
  // Service jobs pin their manager to the head node so it can never wander
  // onto another tenant's lease. Standalone runs keep the historical
  // freedom: an evacuation order for the manager's node may migrate it to
  // a worker node.
  if (job != scp::kNoJob) mgr_opts.domain = {manager_node};
  mgr_opts.job = job;
  const auto mgr_tid = runtime.spawn(
      "manager",
      [this, on_complete = std::move(on_complete)] {
        return std::make_unique<ManagerActor>(params_, config_.cube,
                                              outcome_, on_complete);
      },
      std::move(mgr_opts));
  RIF_CHECK(mgr_tid == params_.manager_tid);

  for (int w = 0; w < config_.workers; ++w) {
    // Replica r of worker w lives on worker_nodes[(w + r) % W]: replicas of
    // one worker land on distinct nodes (when W > 1), and with replication
    // 2 every worker node carries exactly two worker replicas — the paper's
    // level-2 layout on the same machines.
    scp::SpawnOptions opts;
    opts.replication = config_.replication;
    for (int r = 0; r < config_.replication; ++r) {
      opts.placement.push_back(
          worker_nodes[(w + r) % static_cast<int>(worker_nodes.size())]);
    }
    opts.domain = worker_nodes;
    opts.job = job;
    const auto tid = runtime.spawn(
        "worker" + std::to_string(w),
        [this] { return std::make_unique<WorkerActor>(params_); },
        std::move(opts));
    RIF_CHECK(tid == params_.worker_tids[w]);
  }

  topology_.manager = params_.manager_tid;
  topology_.workers = params_.worker_tids;
  return topology_;
}

FusionReport run_fusion_job(const FusionJobConfig& config) {
  sim::Simulation sim;
  cluster::Cluster cluster(sim);
  // Node 0 hosts the manager (the "sensor"); nodes 1..P host workers.
  cluster.add_nodes(config.workers + 1, config.node);

  std::unique_ptr<net::Network> network =
      make_network(cluster, config.network, config.lan, config.smp);

  scp::RuntimeConfig rt_config = config.runtime;
  rt_config.resilient = config.resilient;
  rt_config.regenerate = config.regenerate;
  scp::Runtime runtime(cluster, *network, rt_config);

  FusionJobInstance instance(config);
  std::vector<cluster::NodeId> worker_nodes;
  for (int w = 0; w < config.workers; ++w) worker_nodes.push_back(w + 1);
  instance.spawn(runtime, /*manager_node=*/0, worker_nodes);

  cluster::FailureInjector injector(cluster);
  injector.schedule(config.failures);
  for (const auto& order : config.evacuations) {
    RIF_CHECK_MSG(config.resilient, "evacuation requires resilient mode");
    sim.schedule_at(order.time, [&runtime, node = order.node] {
      runtime.evacuate_node(node);
    });
  }

  runtime.start();
  const bool finished = runtime.run(config.deadline);

  FusionReport report;
  report.completed = finished && instance.outcome().completed;
  report.elapsed_seconds = to_seconds(instance.outcome().completion_time);
  report.outcome = instance.take_outcome();
  report.protocol = runtime.stats();
  report.network = network->stats();
  report.crashes_injected = injector.crashes_injected();
  report.sim_events = sim.events_executed();
  for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
    report.total_flops_charged += cluster.node(n).flops_charged();
  }
  return report;
}

}  // namespace rif::core
