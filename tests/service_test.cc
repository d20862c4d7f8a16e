#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "core/distributed/fusion_job.h"
#include "core/parallel/parallel_pct.h"
#include "hsi/cube_io.h"
#include "hsi/scene.h"
#include "linalg/kernels.h"
#include "obs/chrome_trace.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "service/service.h"
#include "stream/streaming_engine.h"

namespace rif::service {
namespace {

core::FusionJobConfig cost_only_job(int workers, int tiles_per_worker = 2) {
  core::FusionJobConfig cfg;
  cfg.mode = core::ExecutionMode::kCostOnly;
  cfg.shape = {320, 320, 105};
  cfg.workers = workers;
  cfg.tiles_per_worker = tiles_per_worker;
  return cfg;
}

JobRequest request(const std::string& tenant, int workers,
                   Priority priority = Priority::kNormal, SimTime arrival = 0) {
  JobRequest r;
  r.tenant = tenant;
  r.config = cost_only_job(workers);
  r.priority = priority;
  r.arrival = arrival;
  return r;
}

const JobRecord& record_of(const ServiceReport& report, JobId id) {
  return report.jobs[static_cast<std::size_t>(id)];
}

/// Every tenant row equals its sums over the job records: counts over
/// all of the tenant's jobs, flops over every job (0 for one that never
/// reached virtual completion), wait and service time over completed jobs.
void expect_tenants_match_records(const ServiceReport& report) {
  std::set<std::string> names;
  for (const JobRecord& r : report.jobs) names.insert(r.tenant);
  ASSERT_EQ(report.tenants.size(), names.size());
  for (const TenantAccount& acc : report.tenants) {
    TenantAccount sum;
    for (const JobRecord& r : report.jobs) {
      if (r.tenant != acc.tenant) continue;
      ++sum.jobs_submitted;
      sum.jobs_completed += r.completed;
      sum.jobs_rejected += r.rejected != RejectReason::kNone;
      sum.jobs_failed += r.failed;
      sum.flops_charged += r.flops_charged;
      if (!r.completed) continue;
      sum.wait_seconds += r.wait_seconds;
      sum.service_seconds += r.service_seconds;
    }
    EXPECT_EQ(acc.jobs_submitted, sum.jobs_submitted) << acc.tenant;
    EXPECT_EQ(acc.jobs_completed, sum.jobs_completed) << acc.tenant;
    EXPECT_EQ(acc.jobs_rejected, sum.jobs_rejected) << acc.tenant;
    EXPECT_EQ(acc.jobs_failed, sum.jobs_failed) << acc.tenant;
    EXPECT_DOUBLE_EQ(acc.flops_charged, sum.flops_charged) << acc.tenant;
    EXPECT_DOUBLE_EQ(acc.wait_seconds, sum.wait_seconds) << acc.tenant;
    EXPECT_DOUBLE_EQ(acc.service_seconds, sum.service_seconds) << acc.tenant;
  }
}

/// Tenant "t" ran two jobs and one failed on the host: the registry counts
/// the other completed once, with one wait and one latency sample, and
/// does not count the failed one.
void expect_registry_counts_one_completion(FusionService& service) {
  const runtime::MetricsRegistry& reg = service.metrics();
  EXPECT_EQ(reg.counter_value("service.completed"), 1u);
  EXPECT_EQ(reg.counter_value("tenant.t.completed"), 1u);
  for (const char* name :
       {"tenant.t.wait_seconds", "tenant.t.latency_seconds"}) {
    const runtime::Histogram* h = reg.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 1u) << name;
  }
}

// --- Acceptance-criteria scenario -------------------------------------------

TEST(ServiceTest, TwoTenantsManyJobsShareOneCluster) {
  ServiceConfig cfg;
  cfg.worker_nodes = 8;
  FusionService service(cfg);

  // Two tenants, ten jobs, all arriving together: small jobs must pack
  // concurrently onto disjoint worker sets.
  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(service.submit(request("alice", 4)).id);
    ids.push_back(service.submit(request("bob", 2)).id);
  }
  const ServiceReport report = service.run();

  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(report.jobs_submitted, 10);
  EXPECT_EQ(report.jobs_completed, 10);
  EXPECT_EQ(report.jobs_rejected, 0);
  EXPECT_GE(report.max_concurrent_jobs, 2);
  EXPECT_GT(report.throughput_jobs_per_sec, 0.0);
  EXPECT_GE(report.latency_p99, report.latency_p50);

  // Concurrent jobs always ran on disjoint worker sets.
  for (std::size_t a = 0; a < report.jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < report.jobs.size(); ++b) {
      const JobRecord& ra = report.jobs[a];
      const JobRecord& rb = report.jobs[b];
      const bool overlap = ra.start_time < rb.finish_time &&
                           rb.start_time < ra.finish_time;
      if (!overlap) continue;
      std::set<cluster::NodeId> nodes(ra.leased_nodes.begin(),
                                      ra.leased_nodes.end());
      for (const cluster::NodeId n : rb.leased_nodes) {
        EXPECT_FALSE(nodes.contains(n))
            << "jobs " << ra.id << " and " << rb.id
            << " shared node " << n << " while overlapping";
      }
    }
  }

  // Per-tenant accounting equals the sum of the per-job records.
  ASSERT_EQ(report.tenants.size(), 2u);
  expect_tenants_match_records(report);
  for (const TenantAccount& acc : report.tenants) {
    EXPECT_EQ(acc.jobs_submitted, 5u);
    EXPECT_GT(acc.flops_charged, 0.0);
  }
}

// --- Consistency with the single-job runner ---------------------------------

TEST(ServiceTest, LoneJobMatchesStandaloneRunner) {
  const core::FusionReport standalone =
      core::run_fusion_job(cost_only_job(4));
  ASSERT_TRUE(standalone.completed);

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  FusionService service(cfg);
  service.submit(request("solo", 4));
  const ServiceReport report = service.run();

  ASSERT_TRUE(report.all_completed);
  // Same cluster layout (head + 4 workers), same arrival at t=0: the service
  // run must reproduce the paper-world elapsed time exactly.
  EXPECT_DOUBLE_EQ(record_of(report, 0).service_seconds,
                   standalone.elapsed_seconds);
}

TEST(ServiceTest, DeterministicAcrossRuns) {
  auto play = [] {
    ServiceConfig cfg;
    cfg.worker_nodes = 6;
    FusionService service(cfg);
    service.submit(request("a", 4, Priority::kNormal, 0));
    service.submit(request("b", 2, Priority::kHigh, from_millis(5)));
    service.submit(request("a", 6, Priority::kBatch, from_millis(10)));
    return service.run();
  };
  const ServiceReport r1 = play();
  const ServiceReport r2 = play();
  EXPECT_DOUBLE_EQ(r1.makespan_seconds, r2.makespan_seconds);
  EXPECT_EQ(r1.sim_events, r2.sim_events);
}

// --- Typed rejection (no hangs) ---------------------------------------------

TEST(ServiceTest, RejectsJobLargerThanClusterWithTypedError) {
  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  FusionService service(cfg);

  const SubmitResult too_big = service.submit(request("greedy", 8));
  EXPECT_FALSE(too_big.accepted());
  EXPECT_EQ(too_big.rejected, RejectReason::kTooManyWorkers);

  JobRequest replicated = request("greedy", 2);
  replicated.config.replication = 2;  // service runtime is not resilient
  const SubmitResult bad = service.submit(replicated);
  EXPECT_EQ(bad.rejected, RejectReason::kBadConfig);

  JobRequest zero = request("greedy", 2);
  zero.config.workers = 0;
  EXPECT_EQ(service.submit(zero).rejected, RejectReason::kBadConfig);

  // Screening thresholds the unique set would abort on mid-run, NaN
  // included, and output components outside [3, bands].
  for (const double threshold :
       {0.0, -0.1, 1.5707, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
    JobRequest bad_threshold = request("greedy", 2);
    bad_threshold.config.screening_threshold = threshold;
    EXPECT_EQ(service.submit(bad_threshold).rejected,
              RejectReason::kBadConfig)
        << threshold;
  }
  for (const int components : {2, 106}) {  // the cube has 105 bands
    JobRequest bad_components = request("greedy", 2);
    bad_components.config.output_components = components;
    EXPECT_EQ(service.submit(bad_components).rejected,
              RejectReason::kBadConfig)
        << components;
  }

  // The run must terminate immediately — rejected jobs never queue.
  const ServiceReport report = service.run();
  EXPECT_EQ(report.jobs_submitted, 10);
  EXPECT_EQ(report.jobs_rejected, 10);
  EXPECT_EQ(report.jobs_completed, 0);
  EXPECT_TRUE(report.all_completed);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].jobs_rejected, 10u);
}

TEST(ServiceTest, ComponentsUpToTheBandCountAreAccepted) {
  // The component bound is inclusive: a Full job asking for every band
  // runs to completion.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.execution_threads = 1;
  FusionService service(cfg);
  JobRequest r = request("t", 1);
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {16, 16, 8};
  r.config.cube = &scene.cube;
  r.config.output_components = 8;
  ASSERT_TRUE(service.submit(r).accepted());
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.all_completed);
}

TEST(ServiceTest, EmptyQueueDrainsImmediately) {
  FusionService service(ServiceConfig{});
  const ServiceReport report = service.run();
  EXPECT_TRUE(report.all_completed);
  EXPECT_EQ(report.jobs_submitted, 0);
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.throughput_jobs_per_sec, 0.0);
}

TEST(ServiceTest, BoundedQueueRejectsOverflowAtArrival) {
  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.max_queue_length = 1;
  FusionService service(cfg);

  service.submit(request("t", 2, Priority::kNormal, 0));  // runs immediately
  service.submit(request("t", 2, Priority::kNormal, from_millis(1)));  // queued
  const SubmitResult spilled =
      service.submit(request("t", 2, Priority::kNormal, from_millis(2)));
  ASSERT_TRUE(spilled.accepted());  // structurally fine; rejected at arrival

  const ServiceReport report = service.run();
  EXPECT_EQ(report.jobs_completed, 2);
  EXPECT_EQ(report.jobs_rejected, 1);
  EXPECT_EQ(record_of(report, spilled.id).rejected, RejectReason::kQueueFull);
  EXPECT_TRUE(report.all_completed);
}

// --- Scheduling policies ----------------------------------------------------

TEST(ServiceTest, InterleavedPrioritiesFromTwoTenantsRespectClasses) {
  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  FusionService service(cfg);

  // A blocker occupies the whole pool; the rest arrive while it runs and
  // every one needs the full pool, so admission order is pure queue order.
  const JobId blocker = service.submit(request("a", 4, Priority::kNormal, 0)).id;
  const JobId batch1 =
      service.submit(request("a", 4, Priority::kBatch, from_millis(1))).id;
  const JobId high1 =
      service.submit(request("b", 4, Priority::kHigh, from_millis(2))).id;
  const JobId batch2 =
      service.submit(request("b", 4, Priority::kBatch, from_millis(3))).id;
  const JobId normal1 =
      service.submit(request("a", 4, Priority::kNormal, from_millis(4))).id;
  const JobId high2 =
      service.submit(request("a", 4, Priority::kHigh, from_millis(5))).id;

  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);

  const auto start = [&](JobId id) { return record_of(report, id).start_time; };
  // high before normal before batch; FIFO within a class.
  EXPECT_LT(start(blocker), start(high1));
  EXPECT_LT(start(high1), start(high2));
  EXPECT_LT(start(high2), start(normal1));
  EXPECT_LT(start(normal1), start(batch1));
  EXPECT_LT(start(batch1), start(batch2));
}

TEST(ServiceTest, FirstFitBackfillsPastTooLargeHead) {
  ServiceConfig cfg;
  cfg.worker_nodes = 6;
  FusionService service(cfg);

  const JobId blocker = service.submit(request("t", 4, Priority::kNormal, 0)).id;
  // big doesn't fit the 2 free nodes; small arrives later but does.
  const JobId big =
      service.submit(request("t", 4, Priority::kNormal, from_millis(1))).id;
  const JobId small =
      service.submit(request("t", 2, Priority::kNormal, from_millis(2))).id;

  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_LT(record_of(report, small).start_time,
            record_of(report, big).start_time);
  EXPECT_EQ(record_of(report, small).start_time,
            record_of(report, blocker).start_time + from_millis(2));
}

TEST(ServiceTest, SmallestFirstPacksSmallJobsBeforeBigOnes) {
  const auto play = [](AdmissionPolicy policy) {
    ServiceConfig cfg;
    cfg.worker_nodes = 4;
    cfg.admission = policy;
    FusionService service(cfg);
    const JobId blocker =
        service.submit(request("t", 4, Priority::kNormal, 0)).id;
    (void)blocker;
    const JobId big =
        service.submit(request("t", 4, Priority::kNormal, from_millis(1))).id;
    const JobId small1 =
        service.submit(request("t", 2, Priority::kNormal, from_millis(2))).id;
    const JobId small2 =
        service.submit(request("t", 2, Priority::kNormal, from_millis(3))).id;
    const ServiceReport report = service.run();
    return std::tuple{record_of(report, big).start_time,
                      record_of(report, small1).start_time,
                      record_of(report, small2).start_time,
                      report.all_completed};
  };

  // First-fit honors FIFO: the big job (queued first) runs before the
  // small ones once the blocker's nodes free up.
  const auto [ff_big, ff_s1, ff_s2, ff_ok] =
      play(AdmissionPolicy::kFirstFit);
  ASSERT_TRUE(ff_ok);
  EXPECT_LT(ff_big, ff_s1);
  EXPECT_LT(ff_big, ff_s2);

  // Smallest-first packs the two 2-node jobs concurrently before the big one.
  const auto [sf_big, sf_s1, sf_s2, sf_ok] =
      play(AdmissionPolicy::kSmallestFirst);
  ASSERT_TRUE(sf_ok);
  EXPECT_LT(sf_s1, sf_big);
  EXPECT_LT(sf_s2, sf_big);
  EXPECT_EQ(sf_s1, sf_s2);  // they run side by side
}

TEST(ServiceTest, SmallestFirstBreaksDemandTiesFifo) {
  // Documented behaviour pinned: among EQUAL worker demands, kSmallestFirst
  // admits the earliest-queued job (priority-then-FIFO tie-break), not an
  // arbitrary one.
  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.admission = AdmissionPolicy::kSmallestFirst;
  FusionService service(cfg);
  // A blocker owns the whole cluster so the three equal-demand jobs queue
  // up behind it in arrival order; only one can run at a time afterwards.
  (void)service.submit(request("t", 2, Priority::kNormal, 0));
  const JobId first =
      service.submit(request("t", 2, Priority::kNormal, from_millis(1))).id;
  const JobId second =
      service.submit(request("t", 2, Priority::kNormal, from_millis(2))).id;
  const JobId third =
      service.submit(request("t", 2, Priority::kNormal, from_millis(3))).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_LT(record_of(report, first).start_time,
            record_of(report, second).start_time);
  EXPECT_LT(record_of(report, second).start_time,
            record_of(report, third).start_time);
}

// --- Host execution pool -----------------------------------------------------

TEST(ServiceTest, FullModeJobsExecuteOnSharedHostPool) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 12;
  scene_cfg.seed = 21;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  ServiceConfig cfg;
  cfg.worker_nodes = 8;
  cfg.execution_threads = 4;
  FusionService service(cfg);

  // Three Full-mode jobs from two tenants over the same cube; they fuse
  // concurrently on the one shared 4-thread pool, each within its admitted
  // worker budget.
  const auto full_request = [&](const std::string& tenant, int workers,
                                SimTime arrival) {
    JobRequest r;
    r.tenant = tenant;
    r.config = cost_only_job(workers);
    r.config.mode = core::ExecutionMode::kFull;
    r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
    r.config.cube = &scene.cube;
    r.arrival = arrival;
    return r;
  };
  const JobId a = service.submit(full_request("alice", 4, 0)).id;
  const JobId b = service.submit(full_request("bob", 2, 0)).id;
  const JobId c = service.submit(full_request("alice", 2, from_millis(5))).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);

  // Every job's outcome matches the shared-memory engine run with the
  // service's pool size, the same per-job tiling budget (workers *
  // tiles_per_worker) and the service's one covariance shard.
  for (const JobId id : {a, b, c}) {
    const JobRecord& rec = record_of(report, id);
    ASSERT_TRUE(rec.completed);
    core::ParallelPctConfig expect_cfg;
    expect_cfg.threads = cfg.execution_threads;
    expect_cfg.tiles = rec.workers * 2;  // tiles_per_worker = 2
    expect_cfg.cov_shards = 1;
    const core::PctResult expected =
        core::fuse_parallel(scene.cube, expect_cfg);
    EXPECT_EQ(rec.outcome.composite.data, expected.composite.data)
        << "job " << id;
    EXPECT_EQ(rec.outcome.unique_set_size, expected.unique_set_size);
    EXPECT_EQ(rec.outcome.eigenvalues, expected.eigenvalues);
    EXPECT_EQ(rec.outcome.screen_comparisons, expected.screen_comparisons);
    EXPECT_EQ(rec.outcome.merge_comparisons, expected.merge_comparisons);
    // Each host-executed job reports its wall time on the shared pool.
    EXPECT_GT(rec.host_seconds, 0.0) << "job " << id;
  }

  // Host-pool utilisation over run(), from the registry gauges. (busy is
  // capacity - idle by construction, so assert the independently measured
  // quantities instead.) Which pool thread runs a job's task depends on
  // scheduling; the task counter does not: every task is counted,
  // whichever thread runs it.
  const runtime::MetricsRegistry& reg = service.metrics();
  const double wall = reg.gauge_value("host_pool.wall_seconds");
  const double busy = reg.gauge_value("host_pool.busy_seconds");
  const double utilization = reg.gauge_value("host_pool.utilization");
  EXPECT_GT(wall, 0.0);
  EXPECT_GE(reg.counter_value("host_pool.tasks_executed"), 3u);
  EXPECT_GE(busy, 0.0);
  EXPECT_LE(busy, wall * cfg.execution_threads);
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
  // Every job's fused run happened inside run().
  for (const JobId id : {a, b, c}) {
    EXPECT_LE(record_of(report, id).host_seconds, wall + 1e-6);
  }
}

TEST(ServiceTest, HostPoolOffKeepsActorExecution) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  ServiceConfig cfg;
  cfg.worker_nodes = 4;  // execution_threads stays 0
  FusionService service(cfg);
  JobRequest r;
  r.tenant = "t";
  r.config = cost_only_job(2);
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  const JobId id = service.submit(r).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  // The simulated actors computed the composite, exactly as before.
  EXPECT_EQ(record_of(report, id).outcome.composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
  // The job still holds its resident cube as its source, so admission
  // budgets the cube, as for a host-executed job.
  EXPECT_EQ(record_of(report, id).memory_demand, scene.cube.bytes());
  // No host pool: no utilisation gauges.
  const runtime::MetricsRegistry& reg = service.metrics();
  EXPECT_EQ(reg.find_gauge("host_pool.wall_seconds"), nullptr);
  EXPECT_EQ(reg.find_gauge("host_pool.busy_seconds"), nullptr);
  EXPECT_EQ(reg.find_gauge("host_pool.utilization"), nullptr);
  EXPECT_EQ(record_of(report, id).host_seconds, 0.0);
}

// --- Resiliency on the shared cluster ---------------------------------------

TEST(ServiceTest, ResilientJobRegeneratesWithinItsLease) {
  ServiceConfig cfg;
  cfg.worker_nodes = 6;
  cfg.runtime.resilient = true;
  cfg.runtime.regenerate = true;
  cfg.runtime.heartbeat_period = from_millis(250);
  cfg.runtime.failure_timeout = from_seconds(1);
  // Kill a node the first job will lease (deterministically nodes 1..4).
  cfg.failures = {{from_seconds(20), 2, -1}};
  FusionService service(cfg);

  // Replication that cannot get distinct nodes within the lease is refused:
  // a single crash would void the redundancy the tenant paid for.
  JobRequest squeezed = request("resilient-tenant", 1);
  squeezed.config.replication = 2;
  EXPECT_EQ(service.submit(squeezed).rejected, RejectReason::kBadConfig);

  JobRequest r = request("resilient-tenant", 4);
  r.config.replication = 2;
  const JobId id = service.submit(r).id;

  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_GE(report.protocol.failures_detected, 1u);
  EXPECT_GE(report.protocol.replicas_regenerated, 1u);

  // Regeneration never left the job's leased nodes. (The replicas are
  // retired after completion, but each member's final placement survives.)
  const JobRecord& rec = record_of(report, id);
  const std::set<cluster::NodeId> lease(rec.leased_nodes.begin(),
                                        rec.leased_nodes.end());
  const auto threads = service.runtime().threads_of_job(id);
  for (const scp::ThreadId tid : threads) {
    if (tid == threads.front()) continue;  // the manager lives on the head
    for (const scp::ReplicaInfo& m : service.runtime().members_of(tid)) {
      EXPECT_TRUE(lease.contains(m.node))
          << "replica of thread " << tid << " regenerated onto node "
          << m.node << " outside the lease";
    }
  }
}

TEST(ServiceTest, NonResilientJobFailsFastWhenLeasedNodeDies) {
  ServiceConfig cfg;  // default runtime: not resilient, no detector
  cfg.worker_nodes = 2;
  cfg.failures = {{from_seconds(20), 1, -1}};
  FusionService service(cfg);

  const JobId doomed = service.submit(request("t", 2, Priority::kNormal, 0)).id;
  const JobId later =
      service.submit(request("t", 1, Priority::kNormal, from_seconds(30))).id;
  const ServiceReport report = service.run();

  // The crash fails the leaseholder at the crash instant — no wedged lease,
  // no silent "neither completed nor failed" job.
  const JobRecord& rec = record_of(report, doomed);
  EXPECT_TRUE(rec.failed);
  EXPECT_EQ(rec.finish_time, from_seconds(20));
  EXPECT_EQ(report.jobs_failed, 1);
  // The surviving node is re-leasable; the later small job completes on it.
  EXPECT_TRUE(record_of(report, later).completed);
  EXPECT_EQ(record_of(report, later).leased_nodes,
            (std::vector<cluster::NodeId>{2}));
  EXPECT_FALSE(report.all_completed);
}

TEST(ServiceTest, RepairedNodeUnblocksQueuedJobs) {
  ServiceConfig cfg;
  cfg.worker_nodes = 1;
  // The only worker dies before the job arrives and comes back 10s later;
  // the repair must wake the scheduler, not strand the queued job.
  cfg.failures = {{from_seconds(1), 1, from_seconds(10)}};
  FusionService service(cfg);

  const JobId id =
      service.submit(request("t", 1, Priority::kNormal, from_seconds(2))).id;
  const ServiceReport report = service.run();

  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(record_of(report, id).start_time, from_seconds(11) + 1);
}

TEST(ServiceTest, DeadNodesAreNeverLeased) {
  ServiceConfig cfg;
  cfg.worker_nodes = 3;
  // Node 1 (lowest id, first pick otherwise) dies before any job arrives
  // and is never repaired.
  cfg.failures = {{from_millis(1), 1, -1}};
  FusionService service(cfg);

  const JobId id =
      service.submit(request("t", 2, Priority::kNormal, from_millis(10))).id;
  const ServiceReport report = service.run();

  ASSERT_TRUE(report.all_completed);
  const JobRecord& rec = record_of(report, id);
  EXPECT_EQ(rec.leased_nodes, (std::vector<cluster::NodeId>{2, 3}))
      << "job must be placed around the dead node, not on it";
}

TEST(ServiceTest, LostJobIsFailedAndServiceKeepsServing) {
  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.runtime.resilient = true;
  cfg.runtime.regenerate = true;
  cfg.runtime.heartbeat_period = from_millis(250);
  cfg.runtime.failure_timeout = from_seconds(1);
  // Both worker nodes die (repaired after 5s): the unreplicated job running
  // on them is unrecoverable — regeneration is confined to its lease, which
  // is entirely dead — but the pool comes back for later arrivals.
  cfg.failures = {{from_seconds(20), 1, from_seconds(5)},
                  {from_seconds(20), 2, from_seconds(5)}};
  FusionService service(cfg);

  const JobId doomed = service.submit(request("t", 2, Priority::kNormal, 0)).id;
  // Arrives after the repair; the failed job's lease must have been
  // reclaimed so this one can run to completion.
  const JobId survivor =
      service.submit(request("t", 2, Priority::kNormal, from_seconds(30))).id;

  const ServiceReport report = service.run();
  EXPECT_TRUE(record_of(report, doomed).failed);
  EXPECT_EQ(report.jobs_failed, 1);
  EXPECT_FALSE(report.all_completed);
  EXPECT_TRUE(record_of(report, survivor).completed);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].jobs_failed, 1u);
  EXPECT_EQ(report.tenants[0].jobs_completed, 1u);
  expect_tenants_match_records(report);
}

// --- Streaming job mode ------------------------------------------------------

namespace fs = std::filesystem;

/// Write a small scene cube to a temp file; caller removes it.
std::string write_scene_file(const hsi::Scene& scene,
                             const std::string& name) {
  const std::string path = (fs::temp_directory_path() / name).string();
  EXPECT_TRUE(hsi::save_cube(path, scene.cube, hsi::Interleave::kBip,
                             scene.wavelengths));
  return path;
}

JobRequest streaming_request(const std::string& tenant, int workers,
                             const std::string& cube_path, int chunk_lines) {
  JobRequest r;
  r.tenant = tenant;
  r.config = cost_only_job(workers);
  r.mode = JobMode::kStreaming;
  r.cube_path = cube_path;
  r.chunk_lines = chunk_lines;
  return r;
}

TEST(ServiceTest, StreamingJobFusesFromDiskInBoundedMemory) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 64;
  scene_cfg.bands = 10;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_stream.dat");

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  FusionService service(cfg);
  const auto submit = service.submit(streaming_request("ana", 2, path, 8));
  ASSERT_TRUE(submit.accepted());
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);

  const JobRecord& rec = record_of(report, submit.id);
  ASSERT_TRUE(rec.completed);
  EXPECT_EQ(rec.mode, JobMode::kStreaming);
  // The admission budget was chunks, not the cube.
  EXPECT_EQ(rec.memory_demand, 4ull * 8 * 32 * 10 * sizeof(float));
  EXPECT_LT(rec.memory_demand, scene.cube.bytes());

  // Bit-identical to a direct streamed run with the job's admitted budget
  // (workers * tiles_per_worker sub-tiles per chunk).
  stream::StreamingConfig scfg;
  scfg.chunk_lines = 8;
  scfg.tiles_per_chunk = rec.workers * 2;
  const auto expect = stream::fuse_streaming(path, 2, scfg);
  ASSERT_TRUE(expect.has_value());
  EXPECT_EQ(rec.outcome.composite.data, expect->composite.data);
  EXPECT_EQ(rec.outcome.unique_set_size, expect->unique_set_size);

  // Pipeline counters surfaced per job and service-wide.
  EXPECT_EQ(rec.stream.chunks, 8);
  EXPECT_GT(rec.stream.bytes_read, 0u);
  EXPECT_LE(rec.stream.peak_buffer_bytes, rec.memory_demand);
  EXPECT_EQ(report.streaming.jobs, 1);
  EXPECT_EQ(report.streaming.bytes_read, rec.stream.bytes_read);
  EXPECT_EQ(report.streaming.max_peak_buffer_bytes,
            rec.stream.peak_buffer_bytes);
  // SIMD tier attribution rides along with every report.
  EXPECT_EQ(report.simd_backend, linalg::kernels::backend());
  EXPECT_GT(rec.host_seconds, 0.0);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(ServiceTest, StreamingJobStructuralValidation) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 8;
  scene_cfg.height = 8;
  scene_cfg.bands = 4;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_stream_bad.dat");

  {
    // No host pool: nothing could ever stream the file.
    ServiceConfig cfg;
    cfg.worker_nodes = 4;  // execution_threads stays 0
    FusionService service(cfg);
    EXPECT_EQ(service.submit(streaming_request("t", 2, path, 8)).rejected,
              RejectReason::kBadConfig);
  }
  {
    ServiceConfig cfg;
    cfg.worker_nodes = 4;
    cfg.execution_threads = 1;
    FusionService service(cfg);
    // Missing file is caught at submission, not mid-run.
    EXPECT_EQ(service
                  .submit(streaming_request("t", 2, "/no/such/cube.dat", 8))
                  .rejected,
              RejectReason::kBadConfig);
    // So is a cube file that fails the shared size validation.
    fs::resize_file(path, 10);
    EXPECT_EQ(service.submit(streaming_request("t", 2, path, 8)).rejected,
              RejectReason::kBadConfig);
    // An in-memory cube alongside a streaming request is a contradiction.
    JobRequest both = streaming_request("t", 2, path, 8);
    both.config.cube = &scene.cube;
    EXPECT_EQ(service.submit(both).rejected, RejectReason::kBadConfig);
    // A header whose data size wraps 64 bits would match an empty file.
    {
      std::ofstream hdr(path + ".hdr", std::ios::trunc);
      hdr << "ENVI\nsamples = 1073741824\nlines = 1073741824\n"
          << "bands = 16\ndata type = 4\n";
    }
    fs::resize_file(path, 0);
    EXPECT_EQ(service.submit(streaming_request("t", 2, path, 8)).rejected,
              RejectReason::kBadConfig);
  }
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(ServiceTest, StreamingFileLostAfterSubmitFailsTheJob) {
  // The file passes validation at submit() and is truncated before run():
  // the virtual run completes, then host execution cannot read the cube.
  // The job is failed, and the tenant row still sums its records.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 4;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_stream_lost.dat");

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 1;
  FusionService service(cfg);
  const SubmitResult lost = service.submit(streaming_request("t", 2, path, 8));
  ASSERT_TRUE(lost.accepted());
  const SubmitResult kept = service.submit(request("t", 2));
  ASSERT_TRUE(kept.accepted());
  fs::resize_file(path, 10);
  const ServiceReport report = service.run();

  const JobRecord& rec = record_of(report, lost.id);
  EXPECT_TRUE(rec.failed);
  EXPECT_FALSE(rec.completed);
  EXPECT_TRUE(record_of(report, kept.id).completed);
  EXPECT_EQ(report.jobs_failed, 1);
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_FALSE(report.all_completed);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].jobs_failed, 1u);
  EXPECT_EQ(report.tenants[0].jobs_completed, 1u);
  expect_tenants_match_records(report);
  // The quantiles cover completed jobs only, like the tenant sums.
  EXPECT_DOUBLE_EQ(report.wait_p99, record_of(report, kept.id).wait_seconds);
  expect_registry_counts_one_completion(service);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(ServiceTest, DegenerateFullJobFailsAloneOnTheHostPool) {
  // A constant cube screens to a one-member unique set, which has no
  // covariance to decompose. submit() cannot see that coming; host
  // execution fails that job, and the next job of the run still completes.
  hsi::ImageCube flat(8, 8, 4);
  std::fill(flat.raw().begin(), flat.raw().end(), 0.5f);
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 4;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const auto full_request = [](const hsi::ImageCube& cube) {
    JobRequest r;
    r.tenant = "t";
    r.config = cost_only_job(2);
    r.config.mode = core::ExecutionMode::kFull;
    r.config.shape = {cube.width(), cube.height(), cube.bands()};
    r.config.cube = &cube;
    return r;
  };

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 1;
  FusionService service(cfg);
  const SubmitResult degenerate = service.submit(full_request(flat));
  ASSERT_TRUE(degenerate.accepted());
  const SubmitResult kept = service.submit(full_request(scene.cube));
  ASSERT_TRUE(kept.accepted());
  const ServiceReport report = service.run();

  const JobRecord& rec = record_of(report, degenerate.id);
  EXPECT_TRUE(rec.failed);
  EXPECT_FALSE(rec.completed);
  EXPECT_TRUE(record_of(report, kept.id).completed);
  EXPECT_EQ(report.jobs_failed, 1);
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_FALSE(report.all_completed);
  expect_tenants_match_records(report);
  EXPECT_EQ(service.metrics().counter_value("service.failed"), 1u);
  EXPECT_EQ(service.metrics().counter_value("tenant.t.failed"), 1u);
  expect_registry_counts_one_completion(service);
}

/// A Full-mode request over `cube` from tenant "t": host-executed on a
/// service with a pool.
JobRequest host_request(const hsi::ImageCube& cube, int workers,
                        SimTime arrival = 0) {
  JobRequest r = request("t", workers, Priority::kNormal, arrival);
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {cube.width(), cube.height(), cube.bands()};
  r.config.cube = &cube;
  return r;
}

TEST(ServiceTest, HostJobFailedOnTheVirtualTimelineWhileItExecutes) {
  // A leased node crashes while the job's shadow actors run. On a
  // non-resilient runtime that fails the job at the crash instant; its
  // execution, started at admission, ends before the lease and the memory
  // are released, and its result is dropped.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  ServiceConfig cfg;  // default runtime: not resilient
  cfg.worker_nodes = 2;
  cfg.execution_threads = 1;
  cfg.failures = {{from_millis(1), 1, -1}};
  FusionService service(cfg);
  const JobId doomed = service.submit(host_request(scene.cube, 2)).id;
  const JobId next =
      service.submit(host_request(scene.cube, 1, from_millis(2))).id;
  const ServiceReport report = service.run();

  const JobRecord& rec = record_of(report, doomed);
  EXPECT_TRUE(rec.failed);
  EXPECT_FALSE(rec.completed);
  EXPECT_EQ(rec.finish_time, from_millis(1));
  EXPECT_TRUE(rec.outcome.composite.data.empty());
  EXPECT_GT(rec.host_seconds, 0.0);  // its execution ran and was waited for
  EXPECT_EQ(report.jobs_failed, 1);
  const runtime::MetricsRegistry& reg = service.metrics();
  EXPECT_EQ(reg.counter_value("service.failed"), 1u);
  EXPECT_EQ(reg.counter_value("tenant.t.failed"), 1u);
  EXPECT_EQ(reg.gauge_value("service.memory_in_use"), 0.0);
  // The surviving node takes the next job, which completes with pixels.
  const JobRecord& later = record_of(report, next);
  EXPECT_TRUE(later.completed);
  EXPECT_EQ(later.leased_nodes, (std::vector<cluster::NodeId>{2}));
  EXPECT_EQ(later.outcome.composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
  expect_tenants_match_records(report);
  expect_registry_counts_one_completion(service);
}

TEST(ServiceTest, HostJobStrandedAtTheDeadline) {
  // The deadline falls inside the job's virtual run. run() still waits for
  // the execution it started at admission, and the job is neither
  // completed nor failed.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.execution_threads = 1;
  cfg.deadline = from_millis(1);
  FusionService service(cfg);
  const JobId id = service.submit(host_request(scene.cube, 2)).id;
  const ServiceReport report = service.run();

  const JobRecord& rec = record_of(report, id);
  EXPECT_EQ(rec.start_time, 0);
  EXPECT_FALSE(rec.completed);
  EXPECT_FALSE(rec.failed);
  EXPECT_FALSE(report.all_completed);
  EXPECT_EQ(report.jobs_completed, 0);
  EXPECT_EQ(report.jobs_failed, 0);
  EXPECT_GT(rec.host_seconds, 0.0);  // its execution ran and was waited for
  EXPECT_TRUE(rec.outcome.composite.data.empty());
  EXPECT_EQ(service.metrics().counter_value("service.completed"), 0u);
  EXPECT_EQ(service.metrics().counter_value("service.failed"), 0u);
}

TEST(ServiceTest, MemoryBudgetSerializesHostJobs) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 24;
  scene_cfg.height = 24;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  const auto full_request = [&](const std::string& tenant) {
    JobRequest r;
    r.tenant = tenant;
    r.config = cost_only_job(2);
    r.config.mode = core::ExecutionMode::kFull;
    r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
    r.config.cube = &scene.cube;
    return r;
  };

  // Budget fits one cube but not two: jobs that would pack onto disjoint
  // workers must instead run one after the other.
  ServiceConfig cfg;
  cfg.worker_nodes = 8;
  cfg.execution_threads = 2;
  cfg.host_memory_budget = scene.cube.bytes() + scene.cube.bytes() / 2;
  FusionService service(cfg);
  const JobId a = service.submit(full_request("alice")).id;
  const JobId b = service.submit(full_request("bob")).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(report.max_concurrent_jobs, 1);
  EXPECT_EQ(record_of(report, a).memory_demand, scene.cube.bytes());
  EXPECT_EQ(record_of(report, b).memory_demand, scene.cube.bytes());
  // Without the budget the same pair runs concurrently (sanity check that
  // the serialization above really was the memory budget's doing).
  ServiceConfig unbudgeted = cfg;
  unbudgeted.host_memory_budget = 0;
  FusionService service2(unbudgeted);
  service2.submit(full_request("alice"));
  service2.submit(full_request("bob"));
  EXPECT_EQ(service2.run().max_concurrent_jobs, 2);
}

TEST(ServiceTest, OverBudgetJobRejectedOutright) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_overbudget.dat");

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 1;
  cfg.host_memory_budget = scene.cube.bytes() / 2;
  FusionService service(cfg);

  // The whole cube can never fit the budget...
  JobRequest full;
  full.tenant = "t";
  full.config = cost_only_job(2);
  full.config.mode = core::ExecutionMode::kFull;
  full.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  full.config.cube = &scene.cube;
  EXPECT_EQ(service.submit(full).rejected, RejectReason::kOverMemoryBudget);

  // ...but STREAMING the same scene fits: 3 chunk buffers of 2 lines.
  JobRequest streamed = streaming_request("t", 2, path, 2);
  streamed.queue_depth = 3;
  const auto ok = service.submit(streamed);
  EXPECT_TRUE(ok.accepted());
  const ServiceReport report = service.run();
  EXPECT_TRUE(record_of(report, ok.id).completed);
  EXPECT_EQ(record_of(report, ok.id).outcome.composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

// --- adaptive runtime control plane ------------------------------------------

TEST(ServiceTest, StreamingGeometryBoundsSharedWithEngine) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 8;
  scene_cfg.height = 8;
  scene_cfg.bands = 4;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_geom.dat");

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 1;
  FusionService service(cfg);
  // Zero and huge geometry fail at SUBMIT through the same
  // runtime::validate_chunk_geometry the engine enforces mid-run.
  EXPECT_EQ(service.submit(streaming_request("t", 2, path, 0)).rejected,
            RejectReason::kBadConfig);
  EXPECT_EQ(service.submit(streaming_request("t", 2, path, 70000)).rejected,
            RejectReason::kBadConfig);
  JobRequest deep = streaming_request("t", 2, path, 4);
  deep.queue_depth = 2;
  EXPECT_EQ(service.submit(deep).rejected, RejectReason::kBadConfig);
  deep.queue_depth = 1000;
  EXPECT_EQ(service.submit(deep).rejected, RejectReason::kBadConfig);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

/// The kAdaptive-vs-kFirstFit preference scenario: a long `base` job holds
/// most of the memory budget (pressure on) while a short `blocker` holds
/// every remaining worker, so a Full job and a Streaming job queue up
/// behind it. When the blocker finishes, exactly one of the two fits the
/// remaining budget at a time — which one goes first is pure admission
/// policy.
struct PressureScenario {
  SimTime stream_start = -1;
  SimTime full_start = -1;
  bool all_completed = false;
};

PressureScenario run_pressure_scenario(AdmissionPolicy policy,
                                       const hsi::Scene& base_scene,
                                       const hsi::Scene& full_scene,
                                       const std::string& stream_path) {
  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  cfg.admission = policy;
  cfg.host_memory_budget = 90000;
  FusionService service(cfg);

  JobRequest base;  // 50000 B resident, 1 worker, long (big shape)
  base.tenant = "base";
  base.config = cost_only_job(1);
  base.config.mode = core::ExecutionMode::kFull;
  base.config.shape = {50, 50, 5};
  base.config.cube = &base_scene.cube;
  base.arrival = 0;
  EXPECT_TRUE(service.submit(base).accepted());

  JobRequest blocker;  // no host memory, every remaining worker, short
  blocker.tenant = "blocker";
  blocker.config = cost_only_job(3);
  blocker.config.shape = {8, 8, 3};  // bands >= output_components
  blocker.arrival = 0;
  EXPECT_TRUE(service.submit(blocker).accepted());

  JobRequest full;  // 35000 B — fits free budget alone, not with stream
  full.tenant = "full";
  full.config = cost_only_job(2);
  full.config.mode = core::ExecutionMode::kFull;
  full.config.shape = {35, 25, 10};
  full.config.cube = &full_scene.cube;
  full.arrival = 1;  // queued before the stream job (FIFO order)
  const SubmitResult full_submit = service.submit(full);
  EXPECT_TRUE(full_submit.accepted());

  JobRequest stream = streaming_request("stream", 2, stream_path, 4);
  stream.queue_depth = 3;  // demand 3 x 4 x 16 x 8 x 4 = 6144 B
  stream.arrival = 2;
  const SubmitResult stream_submit = service.submit(stream);
  EXPECT_TRUE(stream_submit.accepted());

  const ServiceReport report = service.run();
  PressureScenario out;
  out.all_completed = report.all_completed;
  out.stream_start = record_of(report, stream_submit.id).start_time;
  out.full_start = record_of(report, full_submit.id).start_time;
  return out;
}

TEST(ServiceTest, AdaptivePolicyPrefersStreamingUnderMemoryPressure) {
  hsi::SceneConfig base_cfg;  // 50 x 50 x 5 floats = 50000 B
  base_cfg.width = 50;
  base_cfg.height = 50;
  base_cfg.bands = 5;
  const hsi::Scene base_scene = hsi::generate_scene(base_cfg);
  hsi::SceneConfig full_cfg;  // 35 x 25 x 10 floats = 35000 B
  full_cfg.width = 35;
  full_cfg.height = 25;
  full_cfg.bands = 10;
  const hsi::Scene full_scene = hsi::generate_scene(full_cfg);
  hsi::SceneConfig stream_cfg;
  stream_cfg.width = 16;
  stream_cfg.height = 16;
  stream_cfg.bands = 8;
  const hsi::Scene stream_scene = hsi::generate_scene(stream_cfg);
  const std::string path =
      write_scene_file(stream_scene, "rif_svc_adaptive.dat");

  // kFirstFit honors FIFO: the Full job (earlier arrival) is admitted at
  // the blocker's completion and the streamed job waits for the base job.
  const PressureScenario first_fit = run_pressure_scenario(
      AdmissionPolicy::kFirstFit, base_scene, full_scene, path);
  ASSERT_TRUE(first_fit.all_completed);
  EXPECT_LT(first_fit.full_start, first_fit.stream_start);

  // kAdaptive under pressure (free 40000 <= 90000/2) jumps the streamed
  // job — a sliver of the budget — over the queued Full job.
  const PressureScenario adaptive = run_pressure_scenario(
      AdmissionPolicy::kAdaptive, base_scene, full_scene, path);
  ASSERT_TRUE(adaptive.all_completed);
  EXPECT_LT(adaptive.stream_start, adaptive.full_start);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(ServiceTest, CounterOfferConvertsOverBudgetFullToStreaming) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 24;
  scene_cfg.height = 24;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_offer.dat");

  const auto full_with_file = [&] {
    JobRequest r;
    r.tenant = "t";
    r.config = cost_only_job(2);
    r.config.mode = core::ExecutionMode::kFull;
    r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
    r.config.cube = &scene.cube;
    r.cube_path = path;  // consent to the counter-offer
    r.chunk_lines = 4;
    r.queue_depth = 3;
    return r;
  };

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  cfg.host_memory_budget = scene.cube.bytes() / 2;

  {
    // Static policies still reject outright...
    FusionService service(cfg);
    const auto r = service.submit(full_with_file());
    EXPECT_EQ(r.rejected, RejectReason::kOverMemoryBudget);
    EXPECT_FALSE(r.counter_offered);
  }
  {
    // ...and so does kAdaptive when the tenant attached no file.
    ServiceConfig adaptive = cfg;
    adaptive.admission = AdmissionPolicy::kAdaptive;
    FusionService service(adaptive);
    JobRequest no_file = full_with_file();
    no_file.cube_path.clear();
    EXPECT_EQ(service.submit(no_file).rejected,
              RejectReason::kOverMemoryBudget);
  }
  {
    // kAdaptive + cube_path: admitted as Streaming, runs to completion in
    // bounded memory, and the conversion is flagged end to end.
    ServiceConfig adaptive = cfg;
    adaptive.admission = AdmissionPolicy::kAdaptive;
    FusionService service(adaptive);
    const SubmitResult submit = service.submit(full_with_file());
    ASSERT_TRUE(submit.accepted());
    EXPECT_TRUE(submit.counter_offered);

    const ServiceReport report = service.run();
    ASSERT_TRUE(report.all_completed);
    const JobRecord& rec = record_of(report, submit.id);
    EXPECT_TRUE(rec.completed);
    EXPECT_TRUE(rec.counter_offered);
    EXPECT_EQ(rec.mode, JobMode::kStreaming);
    EXPECT_EQ(rec.memory_demand, 3ull * 4 * 24 * 8 * sizeof(float));
    EXPECT_LT(rec.memory_demand, scene.cube.bytes());
    EXPECT_EQ(rec.outcome.composite.data.size(),
              static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
    EXPECT_GT(rec.stream.chunks, 0);
  }
  fs::remove(path);
  fs::remove(path + ".hdr");
}

TEST(ServiceTest, ReportCarriesRegistryBackedMetricsJson) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_json.dat");

  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  FusionService service(cfg);
  ASSERT_TRUE(service.submit(streaming_request("ana", 2, path, 8)).accepted());
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);

  // One snapshot carries the whole control plane: admission counters,
  // per-tenant latency, host-pool usage, and the merged streamed series
  // that StreamingTotals is a view of.
  const std::string& json = report.metrics_json;
  EXPECT_NE(json.find("\"service.submitted\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"service.completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tenant.ana.latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"stream.chunk_read_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"host_pool.tasks_executed\""), std::string::npos);
  EXPECT_EQ(report.streaming.jobs, 1);
  EXPECT_EQ(report.streaming.bytes_read,
            service.metrics().counter_value("stream.bytes_read"));

  fs::remove(path);
  fs::remove(path + ".hdr");
}

// --- Observability: scheduler pressure signal, spans, scraped timeline -------

TEST(ServiceTest, SchedulerPressureSignalPrefersStreamingBeforeBudgetDrains) {
  // Free memory is still ABOVE the half-way line, so the static free/total
  // signal alone says "no pressure" — only the scraper-published demand
  // signal (queued demand outrunning the remaining budget) can flip
  // kAdaptive into its streaming preference early.
  JobQueue queue;
  queue.push(0, Priority::kNormal, 2, 60000, /*streaming=*/false);
  queue.push(1, Priority::kNormal, 2, 5000, /*streaming=*/true);
  const std::uint64_t free_memory = 70000;
  const std::uint64_t total_memory = 100000;

  const Scheduler adaptive(AdmissionPolicy::kAdaptive);
  EXPECT_EQ(adaptive.pick(queue, 4, free_memory, total_memory, 0.0), 0);
  EXPECT_EQ(adaptive.pick(queue, 4, free_memory, total_memory, 1.5), 1);
  // The static policies ignore the signal entirely.
  const Scheduler first_fit(AdmissionPolicy::kFirstFit);
  EXPECT_EQ(first_fit.pick(queue, 4, free_memory, total_memory, 1.5), 0);
}

TEST(ServiceTest, TracedRunExportsBalancedLifecycleSpans) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_traced.dat");

  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);
  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  FusionService service(cfg);
  ASSERT_TRUE(service.submit(streaming_request("ana", 2, path, 8)).accepted());
  ASSERT_TRUE(service.submit(streaming_request("bo", 2, path, 8)).accepted());
  const ServiceReport report = service.run();
  tracer.set_enabled(false);
  ASSERT_TRUE(report.all_completed);

  const std::string trace_path =
      (fs::temp_directory_path() / "rif_svc_trace.json").string();
  ASSERT_TRUE(obs::write_chrome_trace(trace_path));
  const obs::TraceCheckResult check = obs::check_chrome_trace_file(trace_path);
  EXPECT_TRUE(check.ok) << check.error;
  // One lifecycle lane per job on the virtual timeline, one host-execution
  // span per job on the wall timeline, per-chunk stages underneath.
  EXPECT_EQ(check.span_counts.at("submit"), 2u);
  EXPECT_EQ(check.span_counts.at("queue_wait"), 2u);
  EXPECT_EQ(check.span_counts.at("execute"), 2u);
  EXPECT_EQ(check.span_counts.at("host_execute"), 2u);
  EXPECT_EQ(check.span_counts.at("service_run"), 1u);
  EXPECT_GE(check.span_counts.at("admission"), 1u);
  EXPECT_GT(check.span_counts.at("chunk_read"), 0u);
  EXPECT_GT(check.span_counts.at("chunk_screen"), 0u);
  EXPECT_GT(check.span_counts.at("chunk_transform"), 0u);

  fs::remove(trace_path);
  fs::remove(path);
  fs::remove(path + ".hdr");
  tracer.clear();
}

TEST(ServiceTest, ScrapedTimelineAndPressureHistoryLandInReport) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 8;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string path = write_scene_file(scene, "rif_svc_timeline.dat");

  // Budget fits ONE streamed working set (4 x 8-line chunks = 32768 B), so
  // the second job queues and dispatch's pressured-episode scrape puts a
  // nonzero admission-pressure sample on the timeline deterministically.
  ServiceConfig cfg;
  cfg.worker_nodes = 4;
  cfg.execution_threads = 2;
  cfg.admission = AdmissionPolicy::kAdaptive;
  cfg.host_memory_budget = 40000;
  FusionService service(cfg);
  ASSERT_TRUE(service.submit(streaming_request("ana", 2, path, 8)).accepted());
  ASSERT_TRUE(service.submit(streaming_request("ana", 2, path, 8)).accepted());
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);

  // The embedded timeline parses and carries the guaranteed scrapes (start,
  // the pressured admission, stop) at minimum.
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::parse_json(report.metrics_timeline_json, doc, err)) << err;
  const obs::JsonValue* samples = doc.find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->array.size(), 3u);
  // The pressure history mirrors the samples and saw the queued episode.
  ASSERT_EQ(report.admission_pressure.size(), samples->array.size());
  double max_pressure = 0.0;
  for (const auto& p : report.admission_pressure) {
    max_pressure = std::max(max_pressure, p.pressure);
  }
  EXPECT_GT(max_pressure, 0.0);

  // The tenant row's wait is the sum of the job records' waits.
  double wait_sum = 0.0;
  double max_wait = 0.0;
  int completed = 0;
  for (const auto& rec : report.jobs) {
    if (!rec.completed) continue;
    wait_sum += rec.wait_seconds;
    max_wait = std::max(max_wait, rec.wait_seconds);
    ++completed;
  }
  ASSERT_EQ(completed, 2);
  EXPECT_GT(max_wait, 0.0);  // the second job really queued
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_DOUBLE_EQ(report.tenants[0].wait_seconds, wait_sum);

  fs::remove(path);
  fs::remove(path + ".hdr");
}

// --- Remote worker plane ----------------------------------------------------

TEST(ServiceTest, RemoteWorkersExecuteFullJobsBitExact) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 12;
  scene_cfg.seed = 33;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  // One host node + two remote workers: a 3-worker job can only run by
  // leasing remote capacity, so its pixels travel the socket protocol.
  ServiceConfig cfg;
  cfg.worker_nodes = 1;
  cfg.execution_threads = 2;
  cfg.remote_workers = 2;
  cfg.remote_spawn_local = true;
  FusionService service(cfg);

  JobRequest r;
  r.tenant = "edge";
  r.config = cost_only_job(/*workers=*/3);
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  const JobId id = service.submit(std::move(r)).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(report.remote_workers_attached, 2);
  EXPECT_EQ(report.remote_jobs, 1);
  EXPECT_EQ(report.remote_fallbacks, 0);
  EXPECT_EQ(report.remote_disconnects, 0);

  const JobRecord& rec = record_of(report, id);
  ASSERT_TRUE(rec.completed);
  EXPECT_TRUE(rec.remote_executed);
  EXPECT_EQ(rec.remote_workers, 2);  // covariance shards = live remote workers
  EXPECT_GT(rec.host_seconds, 0.0);

  // Byte-identical to the shared-memory engine with the same shard/tile
  // counts — the same oracle chain remote_exec_test pins.
  core::ParallelPctConfig expect_cfg;
  expect_cfg.tiles = rec.workers * 2;  // tiles_per_worker = 2
  expect_cfg.cov_shards = rec.remote_workers;
  const core::PctResult expected = core::fuse_parallel(scene.cube, expect_cfg);
  EXPECT_EQ(rec.outcome.composite.data, expected.composite.data);
  EXPECT_EQ(rec.outcome.unique_set_size, expected.unique_set_size);
  EXPECT_EQ(rec.outcome.eigenvalues, expected.eigenvalues);
  EXPECT_EQ(rec.outcome.screen_comparisons, expected.screen_comparisons);
  EXPECT_EQ(rec.outcome.merge_comparisons, expected.merge_comparisons);
}

TEST(ServiceTest, HostAndRemoteJobsReturnTheSameOutcome) {
  // One job, run once with its pixels leased onto one in-process remote
  // worker (one covariance shard) and once on a host-only service (whose
  // engine uses one shard by default): every JobOutcome field agrees, so
  // where a job ran does not change its answer.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 12;
  scene_cfg.seed = 35;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const auto run_one = [&](int host_nodes, int remote_workers) {
    ServiceConfig cfg;
    cfg.worker_nodes = host_nodes;
    cfg.execution_threads = 2;
    cfg.remote_workers = remote_workers;
    cfg.remote_spawn_local = remote_workers > 0;
    FusionService service(cfg);
    JobRequest r;
    r.tenant = "either";
    r.config = cost_only_job(/*workers=*/2);
    r.config.mode = core::ExecutionMode::kFull;
    r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
    r.config.cube = &scene.cube;
    const JobId id = service.submit(std::move(r)).id;
    const ServiceReport report = service.run();
    EXPECT_TRUE(report.all_completed);
    return record_of(report, id);
  };
  // One host node + one remote worker: the 2-worker job must lease the
  // remote node, and only it computes shards.
  const JobRecord remote = run_one(1, 1);
  const JobRecord host = run_one(2, 0);
  ASSERT_TRUE(remote.remote_executed);
  ASSERT_EQ(remote.remote_workers, 1);
  ASSERT_FALSE(host.remote_executed);

  const core::JobOutcome& a = remote.outcome;
  const core::JobOutcome& b = host.outcome;
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.unique_set_size, b.unique_set_size);
  EXPECT_EQ(a.screen_comparisons, b.screen_comparisons);
  EXPECT_EQ(a.merge_comparisons, b.merge_comparisons);
  EXPECT_EQ(a.eigenvalues, b.eigenvalues);
  EXPECT_EQ(a.composite.width, b.composite.width);
  EXPECT_EQ(a.composite.height, b.composite.height);
  EXPECT_EQ(a.composite.data, b.composite.data);
  EXPECT_EQ(a.tiles_distributed, b.tiles_distributed);
  EXPECT_EQ(a.tiles_colored, b.tiles_colored);
}

TEST(ServiceTest, NoRemoteWorkersArriveDegradesToHostPool) {
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 16;
  scene_cfg.height = 16;
  scene_cfg.bands = 8;
  scene_cfg.seed = 34;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  // The service expects two remote workers on an ephemeral port; none
  // connect before the (short) wait deadline. A job that fits the host
  // pool must still complete there, with zero remote activity reported.
  ServiceConfig cfg;
  cfg.worker_nodes = 2;
  cfg.execution_threads = 2;
  cfg.remote_workers = 2;
  cfg.remote_wait_seconds = 0.1;
  FusionService service(cfg);

  JobRequest r;
  r.tenant = "hosty";
  r.config = cost_only_job(/*workers=*/2);
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  const JobId id = service.submit(std::move(r)).id;
  const ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  EXPECT_EQ(report.remote_workers_attached, 0);
  EXPECT_EQ(report.remote_jobs, 0);

  const JobRecord& rec = record_of(report, id);
  ASSERT_TRUE(rec.completed);
  EXPECT_FALSE(rec.remote_executed);
  core::ParallelPctConfig expect_cfg;
  expect_cfg.threads = cfg.execution_threads;
  expect_cfg.tiles = rec.workers * 2;
  expect_cfg.cov_shards = 1;
  const core::PctResult expected = core::fuse_parallel(scene.cube, expect_cfg);
  EXPECT_EQ(rec.outcome.composite.data, expected.composite.data);
  EXPECT_EQ(rec.outcome.eigenvalues, expected.eigenvalues);
  EXPECT_EQ(rec.outcome.merge_comparisons, expected.merge_comparisons);
}

}  // namespace
}  // namespace rif::service
