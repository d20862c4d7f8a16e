#include "service/service.h"

#include "service/remote_exec.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "core/parallel/parallel_pct.h"
#include "core/spectral_angle.h"
#include "linalg/kernels.h"
#include "obs/span_tracer.h"
#include "stream/streaming_engine.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::service {

namespace {

/// Node 0 hosts the service head: every job's manager plus the failure
/// detector. Worker nodes are 1..N and form the leasable pool.
constexpr cluster::NodeId kHeadNode = 0;

std::vector<cluster::NodeId> worker_pool(int worker_nodes) {
  std::vector<cluster::NodeId> pool;
  pool.reserve(static_cast<std::size_t>(worker_nodes));
  for (int n = 0; n < worker_nodes; ++n) {
    pool.push_back(static_cast<cluster::NodeId>(n + 1));
  }
  return pool;
}

/// SimTime is already integral nanoseconds — the virtual-trace timestamp
/// directly.
std::uint64_t vt_ns(SimTime t) {
  return t > 0 ? static_cast<std::uint64_t>(t) : 0;
}

/// The job's lifecycle lane in the exported trace (tid on kVirtualPid).
std::int32_t job_track(JobId id) { return static_cast<std::int32_t>(id); }

/// Nearest-rank quantile of ascending `sorted`, q in [0, 1]; 0 when empty.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5)];
}

/// Wall seconds from `start` to now.
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The engine settings of `request`. The file source reads chunk_lines and
/// queue_depth when it is opened, and its working set is the demand the
/// Scheduler admits; fuse_chunks reads pct.
stream::StreamingConfig engine_config(const JobRequest& request) {
  stream::StreamingConfig cfg;
  cfg.pct.screening_threshold = request.config.screening_threshold;
  cfg.pct.output_components = request.config.output_components;
  cfg.chunk_lines = request.chunk_lines;
  cfg.queue_depth = request.queue_depth;
  return cfg;
}

}  // namespace

FusionService::FusionService(ServiceConfig config)
    : config_(std::move(config)),
      cluster_(sim_),
      injector_(cluster_),
      leases_(worker_pool(config_.worker_nodes)),
      scheduler_(config_.admission) {
  RIF_CHECK(config_.worker_nodes >= 1);
  RIF_CHECK(config_.execution_threads >= 0);
  if (config_.execution_threads > 0) {
    exec_pool_ = std::make_unique<core::ThreadPool>(config_.execution_threads);
    exec_pool_->bind_metrics(metrics_, "host_pool.");
  }
  cluster_.add_nodes(config_.worker_nodes + 1, config_.node);
  network_ =
      core::make_network(cluster_, config_.network, config_.lan, config_.smp);
  runtime_ =
      std::make_unique<scp::Runtime>(cluster_, *network_, config_.runtime);
  runtime_->set_on_group_lost([this](scp::ThreadId tid) {
    const JobId id = runtime_->job_of(tid);
    if (id != kNoJob) fail_job(id);
  });

  // The remote pool and its telemetry collector exist from construction
  // (attach_remote_workers only binds/starts them inside run()): the ops
  // plane's status/flamegraph providers run on their own poll thread and
  // must never race a mid-run pointer materialization.
  if (config_.remote_workers > 0) {
    remote_pool_ = std::make_unique<cluster::RemoteWorkerPool>();
    remote_pool_->bind_metrics(metrics_, "remote.");
    remote_pool_->configure_supervision({config_.remote_heartbeat_seconds,
                                         config_.remote_hung_timeout_seconds});
    if (!config_.remote_faults.empty()) {
      RIF_LOG_WARN("service",
                   "wire fault injection ACTIVE on the remote plane ("
                       << config_.remote_faults.script.size()
                       << " scripted events)");
      remote_pool_->install_faults(config_.remote_faults);
    }
    telemetry_ = std::make_unique<obs::RemoteTelemetryCollector>();
    remote_pool_->set_telemetry_sink(
        [this](cluster::NodeId node, const scp::TelemetryBody& body) {
          telemetry_->on_batch(node, body);
        });
  }

  if (config_.scrape_period_seconds > 0.0) {
    obs::MetricsScraper::Config sc;
    sc.period_seconds = config_.scrape_period_seconds;
    scraper_ = std::make_unique<obs::MetricsScraper>(metrics_, sc);
    // The derive hook runs on the scraper thread concurrently with the sim
    // and pool threads, so it reads only the atomic gauges the sim thread
    // publishes — never queue_/memory_in_use_ directly.
    scraper_->set_derive(
        [this,
         budget = config_.host_memory_budget](runtime::MetricsRegistry& reg) {
          double pressure = 0.0;
          if (budget > 0) {
            const double queued =
                reg.gauge_value("service.queued_memory_demand");
            const double in_use = reg.gauge_value("service.memory_in_use");
            const double free =
                std::max(static_cast<double>(budget) - in_use, 0.0);
            pressure = queued / std::max(free, 1.0);
          }
          reg.gauge("service.admission_pressure", runtime::GaugeKind::kSum)
              .set(pressure);
          // Fold the latest remote-worker shipments in under their
          // per-node prefixes, so the same scrape that samples host series
          // samples the remote plane (idempotent between shipments).
          if (telemetry_ != nullptr) telemetry_->merge_metrics_into(reg);
        });
    scraper_->set_on_scrape(
        [this](const std::string& line) { on_scrape_sample(line); });
  }

  if (config_.ops_enabled) {
    log_ring_ = std::make_unique<LogRing>(config_.ops_log_ring);
    Logger::instance().set_sink(log_ring_.get());
    if (telemetry_ != nullptr) {
      // Shipped worker records land in the same ring as local lines, with
      // node attribution; the timestamp is the honest local arrival stamp
      // (worker steady time is a different clock).
      telemetry_->set_log_sink(
          [this](cluster::NodeId node, const scp::TelemetryLog& l) {
            LogRecord record;
            record.level = static_cast<LogLevel>(l.level);
            record.component = l.component;
            record.message = l.message;
            record.job = l.job;
            record.t_seconds = Logger::instance().now_seconds();
            record.node = static_cast<std::int32_t>(node);
            log_ring_->append(std::move(record));
          });
    }
    obs::OpsServerConfig oc;
    oc.port = config_.ops_port;
    oc.unix_path = config_.ops_socket_path;
    obs::OpsServer::Providers providers;
    providers.status_json = [this] { return status_json(); };
    providers.metrics_json = [this] { return metrics_.to_json(); };
    providers.flamegraph_json = [this] { return flamegraph_json(); };
    providers.log_ring = log_ring_.get();
    ops_server_ =
        std::make_unique<obs::OpsServer>(std::move(oc), std::move(providers));
    RIF_CHECK_MSG(ops_server_->start(), "cannot bind the ops endpoint");
    // With a live endpoint the scraper runs from construction too, so a
    // subscriber attached before (or after) run() still sees samples.
    if (scraper_ != nullptr) scraper_->start();
  }
}

FusionService::~FusionService() {
  if (scraper_ != nullptr) scraper_->stop();
  if (ops_server_ != nullptr) ops_server_->stop();
  if (remote_pool_ != nullptr) remote_pool_->stop();
  if (log_ring_ != nullptr) Logger::instance().remove_sink(log_ring_.get());
}

RejectReason FusionService::validate(const JobRequest& request) const {
  const core::FusionJobConfig& cfg = request.config;
  if (cfg.workers < 1 || cfg.tiles_per_worker < 1 || cfg.replication < 1 ||
      request.arrival < 0) {
    return RejectReason::kBadConfig;
  }
  if (cfg.mode == core::ExecutionMode::kFull && cfg.cube == nullptr) {
    return RejectReason::kBadConfig;
  }
  // Thresholds the screen would abort on mid-run, and fewer output
  // components than the colour map needs. The upper bound on components
  // is the band count of the job's source (checked in submit).
  if (!core::UniqueSet::valid_threshold(cfg.screening_threshold) ||
      cfg.output_components < 3) {
    return RejectReason::kBadConfig;
  }
  // A Streaming job fuses a FILE on the host pool; the simulated actors
  // only play out timing/placement, so an in-memory cube (or Full-mode
  // actor execution) alongside is a contradiction. The file and its chunk
  // geometry are checked when submit opens it.
  if (request.mode == JobMode::kStreaming &&
      (request.cube_path.empty() || cfg.cube != nullptr ||
       cfg.mode == core::ExecutionMode::kFull || exec_pool_ == nullptr)) {
    return RejectReason::kBadConfig;
  }
  if (cfg.replication > 1 && !config_.runtime.resilient) {
    return RejectReason::kBadConfig;
  }
  // Replicas of one worker must land on distinct leased nodes, or a single
  // crash wipes a whole group and the redundancy the tenant asked for is
  // fiction.
  if (cfg.replication > cfg.workers) {
    return RejectReason::kBadConfig;
  }
  // Remote workers attach during run(), after all submissions — size the
  // bound to the capacity the service EXPECTS, so jobs may target it.
  if (cfg.workers > config_.worker_nodes + config_.remote_workers) {
    return RejectReason::kTooManyWorkers;
  }
  return RejectReason::kNone;
}

SubmitResult FusionService::submit(JobRequest request) {
  RIF_CHECK_MSG(!ran_, "submit after run()");
  const JobId id = static_cast<JobId>(jobs_.size());
  RIF_TRACE_SPAN_JOB("submit", id);
  if (obs::SpanTracer::instance().enabled()) {
    obs::SpanTracer::instance().set_job_tenant(id, request.tenant);
  }

  auto job = std::make_unique<PendingJob>();
  job->record.id = id;
  job->record.tenant = request.tenant;
  job->record.priority = request.priority;
  job->record.mode = request.mode;
  job->record.workers = request.config.workers;
  job->record.submit_time = request.arrival;

  RejectReason reason = validate(request);

  // The job's pixels: the file a Streaming job names, opened here once
  // (open_cube_file refuses bad chunk geometry and bad files), or the
  // resident cube. A CostOnly job has none.
  if (reason == RejectReason::kNone) {
    if (request.mode == JobMode::kStreaming) {
      job->source =
          stream::open_cube_file(request.cube_path, engine_config(request));
      if (job->source == nullptr) reason = RejectReason::kBadConfig;
    } else if (request.config.cube != nullptr) {
      job->source =
          std::make_unique<stream::CubeChunkSource>(*request.config.cube);
    }
  }

  // The kAdaptive counter-offer: a resident cube that can NEVER fit the
  // memory budget is a guaranteed kOverMemoryBudget — unless the tenant
  // attached a cube_path, which is consent to stream the same scene from
  // that file, whose working set is queue_depth chunk buffers instead of
  // the cube.
  if (reason == RejectReason::kNone && request.mode == JobMode::kFull &&
      job->source != nullptr &&
      config_.admission == AdmissionPolicy::kAdaptive &&
      config_.host_memory_budget > 0 && exec_pool_ != nullptr &&
      !request.cube_path.empty() &&
      job->source->working_set_bytes() > config_.host_memory_budget) {
    job->source =
        stream::open_cube_file(request.cube_path, engine_config(request));
    job->record.mode = JobMode::kStreaming;
    job->record.counter_offered = true;
    metrics_.counter("service.counter_offers").add(1);
    RIF_LOG_DEBUG("service", "job " << id
                                    << " counter-offered as streaming ("
                                    << request.cube_path << ")");
    if (job->source == nullptr) reason = RejectReason::kBadConfig;
  }

  // The source's shape is the job's shape (the cost-model actors play it
  // out) and its working set is the one number admission budgets.
  if (job->source != nullptr) {
    request.config.shape = job->source->shape();
    job->record.memory_demand = job->source->working_set_bytes();
  }
  if (reason == RejectReason::kNone &&
      request.config.output_components > request.config.shape.bands) {
    reason = RejectReason::kBadConfig;
  }
  if (reason == RejectReason::kNone && config_.host_memory_budget > 0 &&
      job->record.memory_demand > config_.host_memory_budget) {
    reason = RejectReason::kOverMemoryBudget;
  }

  metrics_.counter("service.submitted").add(1);
  metrics_.counter("tenant." + request.tenant + ".submitted").add(1);
  if (reason != RejectReason::kNone) {
    job->source.reset();
    job->record.rejected = reason;
    metrics_.counter("service.rejected").add(1);
    metrics_.counter("tenant." + request.tenant + ".rejected").add(1);
    jobs_.push_back(std::move(job));
    return SubmitResult{id, reason, false};
  }

  const bool counter_offered = job->record.counter_offered;
  ++outstanding_;
  sim_.schedule_at(request.arrival, [this, id] { on_arrival(id); });
  job->request = std::move(request);
  jobs_.push_back(std::move(job));
  return SubmitResult{id, RejectReason::kNone, counter_offered};
}

void FusionService::on_arrival(JobId id) {
  PendingJob& job = *jobs_[static_cast<std::size_t>(id)];
  if (config_.max_queue_length != 0 &&
      queue_.size() >= config_.max_queue_length) {
    job.record.rejected = RejectReason::kQueueFull;
    metrics_.counter("service.rejected").add(1);
    metrics_.counter("tenant." + job.record.tenant + ".rejected").add(1);
    --outstanding_;
    RIF_LOG_WARN("service", "job " << id << " rejected: queue full");
    return;
  }
  queue_.push(id, job.record.priority, job.record.workers,
              job.record.memory_demand,
              job.record.mode == JobMode::kStreaming);
  publish_queue_gauges();
  metrics_.gauge("service.queued_memory_demand", runtime::GaugeKind::kSum)
      .set(static_cast<double>(queue_.total_memory_demand()));
  RIF_TRACE_COUNTER("service.queue_occupancy",
                    static_cast<double>(queue_.size()));
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  if (tracer.enabled()) {
    tracer.virtual_begin("queue_wait", job_track(id), vt_ns(sim_.now()), id);
    job.queue_span_open = true;
  }
  dispatch();
}

void FusionService::dispatch() {
  // Leases are only granted on live nodes: a crashed-and-unrepaired worker
  // returns to the free pool when its lease ends but is skipped over until
  // restored, so capacity loss delays jobs instead of dooming them.
  // Liveness is the virtual cluster's alone, so leases follow the virtual
  // timeline only. A remote worker whose connection dropped stays
  // leasable: a job leased onto it runs on the surviving remote workers,
  // or on the host pool when none is left.
  const cluster::NodeFilter alive = [this](cluster::NodeId n) {
    return cluster_.node(n).alive();
  };
  while (true) {
    JobId id = kNoJob;
    {
      // The span covers the decision only: start_job below may run a whole
      // remote job.
      RIF_TRACE_SPAN("admission");
      // Recomputed per admission: start_job below spends budget.
      const std::uint64_t free_memory =
          config_.host_memory_budget == 0
              ? kUnlimitedMemory
              : config_.host_memory_budget - memory_in_use_;
      const std::uint64_t total_memory = config_.host_memory_budget == 0
                                             ? kUnlimitedMemory
                                             : config_.host_memory_budget;
      // The same demand-vs-budget signal the scraper publishes as the
      // "service.admission_pressure" gauge, computed from the sim thread's
      // own live values (the gauge itself may be a scrape period stale).
      const double pressure =
          config_.host_memory_budget == 0
              ? 0.0
              : static_cast<double>(queue_.total_memory_demand()) /
                    std::max(static_cast<double>(free_memory), 1.0);
      id = scheduler_.pick(queue_, leases_.free_nodes(alive), free_memory,
                           total_memory, pressure);
      if (id == kNoJob) break;
      const bool removed = queue_.remove(id);
      RIF_CHECK(removed);
      publish_queue_gauges();
      metrics_.gauge("service.queued_memory_demand", runtime::GaugeKind::kSum)
          .set(static_cast<double>(queue_.total_memory_demand()));
      RIF_TRACE_COUNTER("service.queue_occupancy",
                        static_cast<double>(queue_.size()));
    }
    start_job(id, alive);
  }
  // The periodic scraper samples on the WALL clock, but queue pressure
  // plays out on the virtual timeline — a whole pressured episode can fit
  // between two wall scrapes and never be seen. When admission leaves
  // demand queued against a budget, take a synchronous scrape so every
  // pressured admission decision lands in the timeline (the sample ring
  // bounds the cost).
  if (scraper_ != nullptr && config_.host_memory_budget != 0 &&
      queue_.total_memory_demand() > 0) {
    scraper_->scrape_now();
  }
}

void FusionService::start_job(JobId id, const cluster::NodeFilter& alive) {
  PendingJob& job = *jobs_[static_cast<std::size_t>(id)];
  job.record.start_time = sim_.now();
  job.record.leased_nodes = leases_.acquire(id, job.record.workers, alive);
  RIF_CHECK_MSG(!job.record.leased_nodes.empty(),
                "scheduler admitted a job that does not fit");
  job.flops_at_start.clear();
  for (const cluster::NodeId n : job.record.leased_nodes) {
    job.flops_at_start.push_back(cluster_.node(n).flops_charged());
  }

  // With a host execution pool, a job's source is fused for real from
  // this admission on (start_execution) and the simulated actors run
  // CostOnly beside it. Placement, leases and message flow are unchanged,
  // but virtual time and flops then follow the cost model's estimates
  // rather than the data-dependent counts a Full-mode actor run would
  // charge — the host pool trades that fidelity for running the
  // arithmetic once instead of twice.
  core::FusionJobConfig sim_config = job.request.config;
  if (host_executes(job)) {
    sim_config.mode = core::ExecutionMode::kCostOnly;
    sim_config.cube = nullptr;
  }
  memory_in_use_ += job.record.memory_demand;
  metrics_.gauge("service.memory_in_use", runtime::GaugeKind::kSum)
      .set(static_cast<double>(memory_in_use_));
  RIF_TRACE_COUNTER("service.memory_in_use",
                    static_cast<double>(memory_in_use_));
  // Close the job's queue_wait lane and open its execute lane at the same
  // virtual instant; the queue_wait span is exactly wait_seconds long.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  if (job.queue_span_open) {
    tracer.virtual_end("queue_wait", job_track(id), vt_ns(sim_.now()), id);
    job.queue_span_open = false;
  }
  if (tracer.enabled()) {
    tracer.virtual_begin("execute", job_track(id), vt_ns(sim_.now()), id);
    job.exec_span_open = true;
  }
  job.instance = std::make_unique<core::FusionJobInstance>(sim_config);
  job.instance->spawn(*runtime_, kHeadNode, job.record.leased_nodes, id,
                      [this, id] { on_job_complete(id); });

  ++running_;
  max_concurrent_ = std::max(max_concurrent_, running_);
  publish_queue_gauges();
  RIF_LOG_DEBUG("service", "job " << id << " admitted on "
                                  << job.record.workers << " nodes at t="
                                  << to_seconds(sim_.now()) << "s");
  if (host_executes(job)) start_execution(job);
}

void FusionService::start_execution(PendingJob& job) {
  // A resident cube leased onto live remote workers runs over the socket
  // protocol here, on the service thread. Remote attempts run one at a
  // time, because the pool's event queue is shared.
  if (remote_pool_ != nullptr && job.record.mode == JobMode::kFull &&
      execute_remote(job)) {
    return;
  }
  // Every other job, and every remote attempt that fell back, is one task
  // on the shared pool; its engine nests its own parallel stages inside.
  // Its budget (tiles screened at once, per chunk) is the workers x
  // tiles_per_worker the Scheduler admitted.
  stream::StreamingConfig cfg = engine_config(job.request);
  cfg.tiles_per_chunk =
      job.record.workers * job.request.config.tiles_per_worker;
  if (job.record.mode == JobMode::kStreaming) {
    // The run's registry merges into the service's under one prefix, where
    // concurrent jobs aggregate (counters add, peaks max) for
    // StreamingTotals.
    cfg.metrics = &metrics_;
    cfg.metrics_prefix = "stream.";
  }
  // A remote job that fell back runs at the shard count its attempt fixed;
  // every other job at one shard.
  const int shards = std::max(1, job.record.remote_workers);
  job.execution = exec_pool_->submit([&pool = *exec_pool_,
                                      &source = *job.source, cfg, shards,
                                      id = job.record.id] {
    // Ambient attribution for the task thread: every span and log line
    // below — including the engine's per-chunk spans, which capture it at
    // entry and hand it to pool workers and the reader thread — carries
    // this job's id.
    obs::JobScope job_scope(id);
    RIF_TRACE_SPAN("host_execute");
    const auto start = std::chrono::steady_clock::now();
    Execution done;
    done.result = stream::fuse_chunks(source, pool, cfg, shards);
    done.seconds = seconds_since(start);
    return done;
  });
}

FusionService::Execution FusionService::await_execution(PendingJob& job) {
  if (!job.execution.valid()) return {};
  Execution done = job.execution.get();
  job.record.host_seconds = done.seconds;
  return done;
}

void FusionService::on_job_complete(JobId id) {
  PendingJob& job = *jobs_[static_cast<std::size_t>(id)];
  RIF_CHECK(!job.record.completed && !job.record.failed);
  for (std::size_t i = 0; i < job.record.leased_nodes.size(); ++i) {
    job.record.flops_charged +=
        cluster_.node(job.record.leased_nodes[i]).flops_charged() -
        job.flops_at_start[i];
  }
  job.record.outcome = job.instance->take_outcome();
  if (host_executes(job)) {
    // The actors ran CostOnly and gave the timing; the pixels are the
    // execution's, overlaid on that shadow outcome once it has ended.
    Execution done = await_execution(job);
    if (!done.result) {
      // A file lost since submit, a disk error or a degenerate scene fails
      // this job alone. It keeps the flops its lease was charged.
      RIF_LOG_WARN("service",
                   "job " << id << " failed on the host"
                          << (job.record.mode == JobMode::kStreaming
                                  ? " streaming " + job.request.cube_path
                                  : std::string()));
      settle(job, /*completed=*/false);
      return;
    }
    stream::StreamingResult& r = *done.result;
    if (job.record.mode == JobMode::kStreaming) {
      job.record.stream = r.stats;
      metrics_.counter("stream.jobs").add(1);
    }
    core::JobOutcome& out = job.record.outcome;
    out.composite = std::move(r.composite);
    out.eigenvalues = std::move(r.eigenvalues);
    out.unique_set_size = r.unique_set_size;
    out.screen_comparisons = r.screen_comparisons;
    out.merge_comparisons = r.merge_comparisons;
  }
  settle(job, /*completed=*/true);
}

void FusionService::settle(PendingJob& job, bool completed) {
  const JobId id = job.record.id;
  JobRecord& record = job.record;
  record.completed = completed;
  record.failed = !completed;
  record.finish_time = sim_.now();
  record.wait_seconds = to_seconds(record.start_time - record.submit_time);
  record.service_seconds = to_seconds(record.finish_time - record.start_time);
  if (job.exec_span_open) {
    obs::SpanTracer::instance().virtual_end("execute", job_track(id),
                                            vt_ns(sim_.now()), id);
    job.exec_span_open = false;
  }

  // Tear down the job's actors (quiescent, or whatever survives a loss)
  // before the nodes change hands: a retired worker must not heartbeat —
  // or be billed — on a node leased to the next tenant.
  runtime_->retire_job(id);
  leases_.release(id);
  job.source.reset();
  memory_in_use_ -= record.memory_demand;
  metrics_.gauge("service.memory_in_use", runtime::GaugeKind::kSum)
      .set(static_cast<double>(memory_in_use_));
  RIF_TRACE_COUNTER("service.memory_in_use",
                    static_cast<double>(memory_in_use_));
  const std::string tenant = "tenant." + record.tenant;
  if (completed) {
    metrics_.counter("service.completed").add(1);
    metrics_.counter(tenant + ".completed").add(1);
    metrics_.histogram(tenant + ".wait_seconds").observe(record.wait_seconds);
    metrics_.histogram(tenant + ".latency_seconds")
        .observe(record.wait_seconds + record.service_seconds);
  } else {
    metrics_.counter("service.failed").add(1);
    metrics_.counter(tenant + ".failed").add(1);
  }
  --running_;
  --outstanding_;
  publish_queue_gauges();
  dispatch();
}

void FusionService::on_node_failed(cluster::NodeId node) {
  // With a resilient runtime the failure detector owns recovery (replicas
  // regenerate inside the lease; an unrecoverable group reaches fail_job
  // via on_group_lost). Without it actors are fate-shared with their node
  // and nothing would ever report the loss — fail the leaseholder now so
  // its lease is reclaimed instead of wedging the cluster.
  if (config_.runtime.resilient) return;
  const cluster::LeaseOwner owner = leases_.owner_of(node);
  if (owner == cluster::kNoOwner) return;
  fail_job(static_cast<JobId>(owner));
}

void FusionService::fail_job(JobId id) {
  PendingJob& job = *jobs_[static_cast<std::size_t>(id)];
  if (job.record.completed || job.record.failed) return;
  // The execution reads the source and runs inside the lease, so it ends
  // before either is let go. Its result is dropped: a failed job has no
  // composite.
  (void)await_execution(job);
  RIF_LOG_WARN("service", "job " << id << " failed (replica group lost)");
  settle(job, /*completed=*/false);
}

void FusionService::attach_remote_workers() {
  if (config_.remote_workers <= 0) return;
  RIF_CHECK_MSG(exec_pool_ != nullptr,
                "remote workers require execution_threads > 0 (host fallback)");
  // The pool, its telemetry collector, and both sinks were built in the
  // constructor; here it binds and goes live.
  // Remote node ids continue the cluster's numbering past the host pool.
  const cluster::NodeId first = config_.worker_nodes + 1;
  if (!config_.remote_spawn_local) {
    if (!config_.remote_socket_path.empty()) {
      RIF_CHECK_MSG(remote_pool_->listen_unix(config_.remote_socket_path),
                    "cannot bind remote worker unix socket");
    } else {
      RIF_CHECK_MSG(remote_pool_->listen_tcp(config_.remote_port),
                    "cannot bind remote worker port");
    }
  }
  remote_pool_->start(first);
  if (config_.remote_spawn_local) {
    for (int i = 0; i < config_.remote_workers; ++i) {
      remote_pool_->spawn_local_worker();
    }
  }
  const int attached = remote_pool_->wait_for_workers(
      config_.remote_workers, config_.remote_wait_seconds);
  for (int w = 0; w < attached; ++w) {
    cluster_.add_nodes(1, config_.node);
    const cluster::NodeId node = remote_pool_->node_of(w);
    RIF_CHECK_MSG(node == first + w, "remote node numbering out of step");
    leases_.add_node(node);
    remote_nodes_.push_back(node);
  }
  RIF_LOG_INFO("service", attached << "/" << config_.remote_workers
                                   << " remote workers leased in as nodes "
                                   << first << ".." << (first + attached - 1));
}

ServiceReport FusionService::run() {
  RIF_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;
  RIF_TRACE_SPAN("service_run");
  RIF_LOG_INFO("service", "run started: " << jobs_.size() << " submissions, "
                                          << config_.worker_nodes
                                          << " host nodes, "
                                          << config_.remote_workers
                                          << " remote workers expected");
  const auto run_start = std::chrono::steady_clock::now();
  const double idle_before =
      exec_pool_ != nullptr ? exec_pool_->idle_seconds() : 0.0;
  attach_remote_workers();
  publish_queue_gauges();

  if (scraper_ != nullptr) {
    if (!config_.metrics_stream_path.empty()) {
      // Live NDJSON feed: one sample object per line, flushed as it is
      // scraped, so an observer can tail the run in flight (the scraper
      // thread writes through on_scrape_sample under stream_mu_).
      const std::lock_guard<std::mutex> lock(stream_mu_);
      metrics_stream_.open(config_.metrics_stream_path,
                           std::ios::out | std::ios::trunc);
      if (!metrics_stream_) {
        RIF_LOG_WARN("service", "cannot open metrics stream "
                                    << config_.metrics_stream_path);
      }
    }
    scraper_->start();  // no-op when the ops plane already started it
  }

  injector_.schedule(config_.failures);
  // A repair returns capacity the scheduler may be waiting on; re-dispatch
  // just after each restore. The injector schedules the restore lazily
  // when the crash fires, so an event at the exact repair timestamp would
  // precede it — nudge one tick later. The crash itself is scheduled by
  // the injector above, so an event at the same timestamp here runs after
  // it — on_node_failed sees the node already down.
  for (const auto& f : config_.failures) {
    sim_.schedule_at(f.time, [this, node = f.node] { on_node_failed(node); });
    if (f.repair_after >= 0) {
      sim_.schedule_at(f.time + f.repair_after + 1, [this] { dispatch(); });
    }
  }
  runtime_->start();
  while (outstanding_ > 0 && sim_.now() < config_.deadline) {
    if (!sim_.step()) break;
  }
  // A job stranded at the deadline still executes: wait for it, so nothing
  // runs past the report, and drop its result.
  for (auto& job : jobs_) (void)await_execution(*job);
  if (exec_pool_ != nullptr) {
    // Pool usage over this run: capacity is threads x wall, and the pool
    // reports parked (idle) execution-thread time directly.
    const double wall = seconds_since(run_start);
    const double capacity = wall * static_cast<double>(exec_pool_->size());
    const double idle = std::min(
        capacity, std::max(0.0, exec_pool_->idle_seconds() - idle_before));
    metrics_.gauge("host_pool.busy_seconds").record(capacity - idle);
    metrics_.gauge("host_pool.wall_seconds").record(wall);
    metrics_.gauge("host_pool.utilization")
        .set(capacity > 0.0 ? (capacity - idle) / capacity : 0.0);
  }
  // Goodbye the remote workers (their processes exit) and quiesce the
  // poll thread before reporting.
  if (remote_pool_ != nullptr) remote_pool_->stop();
  if (scraper_ != nullptr) {
    if (ops_server_ != nullptr) {
      // The ops plane outlives run(): keep the scraper streaming so
      // subscribers (and a rif_ops attaching after the run) still see live
      // samples; the destructor stops it. Take one synchronous scrape so
      // the end-of-run state is in the timeline regardless.
      scraper_->scrape_now();
    } else {
      scraper_->stop();  // includes the final scrape
    }
  }
  ServiceReport report = build_report();
  RIF_LOG_INFO("service", "run complete: " << report.jobs_completed << "/"
                                           << report.jobs_submitted
                                           << " jobs completed, "
                                           << report.jobs_failed << " failed, "
                                           << report.jobs_rejected
                                           << " rejected");
  return report;
}

bool FusionService::execute_remote(PendingJob& job) {
  // Pool indices of the job's leased remote nodes that are still connected.
  std::vector<int> workers;
  for (const cluster::NodeId n : job.record.leased_nodes) {
    const int w = remote_pool_->worker_of_node(n);
    if (w >= 0 && remote_pool_->alive(w)) workers.push_back(w);
  }
  if (workers.empty()) return false;

  obs::JobScope job_scope(job.record.id);
  RIF_TRACE_SPAN("remote_execute");
  const auto start = std::chrono::steady_clock::now();
  const core::FusionJobConfig& req = job.request.config;
  RemoteExecParams params;
  params.cube = req.cube;
  params.total_tiles = job.record.workers * req.tiles_per_worker;
  params.screening_threshold = req.screening_threshold;
  params.output_components = req.output_components;
  params.job_id = job.record.id;
  params.deadline_seconds = config_.remote_job_deadline_seconds;
  params.shard_deadline_seconds = config_.remote_shard_deadline_seconds;
  params.resend_limit = config_.remote_resend_limit;
  params.resend_backoff = config_.remote_resend_backoff;
  params.metrics = &metrics_;
  RemoteExecResult r = execute_remote_job(*remote_pool_, workers, params);
  job.record.remote_disconnects += r.worker_disconnects;
  // A fallback keeps the shard count this attempt fixed, so the host
  // computes the composite the remote run would have.
  job.record.remote_workers = r.shards;
  if (!r.completed) {
    metrics_.counter("service.remote_fallbacks").add(1);
    RIF_LOG_WARN("service", "job " << job.record.id
                                   << " lost its remote workers; falling "
                                      "back to the host pool");
    return false;
  }
  Execution done;
  stream::StreamingResult& fused = done.result.emplace();
  fused.composite = std::move(r.composite);
  fused.eigenvalues = std::move(r.eigenvalues);
  fused.unique_set_size = r.unique_set_size;
  fused.screen_comparisons = r.screen_comparisons;
  fused.merge_comparisons = r.merge_comparisons;
  done.seconds = seconds_since(start);
  std::promise<Execution> ended;
  ended.set_value(std::move(done));
  job.execution = ended.get_future();
  job.record.remote_executed = true;
  job.record.remote_requeued_tiles = r.tiles_requeued;
  metrics_.counter("service.remote_jobs").add(1);
  // Telemetry barrier: each worker's job-end flush races our completion
  // (the spans ride the poll thread behind the last result frame). Give
  // every still-live leased worker a short window to land its lane, then
  // pin its ping-echo clock offset so the lane aligns onto our timeline.
  // Best-effort by design: a worker that died or whose telemetry was
  // dropped just leaves a missing lane.
  if (telemetry_ != nullptr) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    for (;;) {
      const std::vector<cluster::NodeId> seen =
          telemetry_->nodes_with_job_end(job.record.id);
      bool covered = true;
      for (const int w : workers) {
        if (!remote_pool_->alive(w)) continue;
        const cluster::NodeId n = remote_pool_->node_of(w);
        if (std::find(seen.begin(), seen.end(), n) == seen.end()) {
          covered = false;
          break;
        }
      }
      if (covered || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (const int w : workers) {
      const cluster::NodeId n = remote_pool_->node_of(w);
      telemetry_->set_clock_offset(n, remote_pool_->clock_offset_ns(n));
    }
  }
  return true;
}

void FusionService::publish_queue_gauges() {
  metrics_.gauge("service.queue_length", runtime::GaugeKind::kSum)
      .set(static_cast<double>(queue_.size()));
  metrics_.gauge("service.running_jobs", runtime::GaugeKind::kSum)
      .set(static_cast<double>(running_));
}

void FusionService::on_scrape_sample(const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(stream_mu_);
    if (metrics_stream_.is_open()) {
      metrics_stream_ << line << '\n';
      metrics_stream_.flush();
    }
  }
  if (ops_server_ != nullptr) ops_server_->publish_metrics_sample(line);
}

std::string FusionService::status_json() {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  std::ostringstream os;
  os << "{\"uptime_seconds\": " << uptime;
  os << ", \"jobs\": {\"submitted\": "
     << metrics_.counter_value("service.submitted")
     << ", \"completed\": " << metrics_.counter_value("service.completed")
     << ", \"rejected\": " << metrics_.counter_value("service.rejected")
     << ", \"failed\": " << metrics_.counter_value("service.failed")
     << ", \"queued\": "
     << static_cast<std::int64_t>(
            metrics_.gauge_value("service.queue_length"))
     << ", \"running\": "
     << static_cast<std::int64_t>(
            metrics_.gauge_value("service.running_jobs"))
     << "}";
  os << ", \"workers\": [";
  if (remote_pool_ != nullptr) {
    const int n = remote_pool_->worker_count();
    for (int w = 0; w < n; ++w) {
      const cluster::NodeId node = remote_pool_->node_of(w);
      os << (w > 0 ? ", " : "") << "{\"node\": " << node << ", \"alive\": "
         << (remote_pool_->alive(w) ? "true" : "false")
         << ", \"clock_offset_ns\": " << remote_pool_->clock_offset_ns(node)
         << "}";
    }
  }
  os << "]";
  if (telemetry_ != nullptr) {
    os << ", \"telemetry\": {\"batches\": " << telemetry_->batches()
       << ", \"rejected\": " << telemetry_->rejected()
       << ", \"duplicates\": " << telemetry_->duplicates()
       << ", \"spans\": " << telemetry_->spans()
       << ", \"log_records\": " << telemetry_->log_records() << "}";
  }
  if (log_ring_ != nullptr) {
    os << ", \"logs\": {\"held\": " << log_ring_->size()
       << ", \"total\": " << log_ring_->total()
       << ", \"dropped\": " << log_ring_->dropped() << "}";
  }
  if (ops_server_ != nullptr) {
    os << ", \"ops\": {\"requests\": " << ops_server_->requests()
       << ", \"bad_requests\": " << ops_server_->bad_requests()
       << ", \"subscribers\": " << ops_server_->subscribers()
       << ", \"frames_dropped\": " << ops_server_->frames_dropped() << "}";
  }
  os << "}";
  return os.str();
}

obs::FlameTable FusionService::fold_flame() {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  std::vector<obs::FlameSpan> flame;
  if (tracer.enabled()) flame = obs::tracer_flame_spans(tracer);
  if (telemetry_ != nullptr) {
    std::vector<obs::FlameSpan> remote =
        telemetry_->flame_spans(tracer.epoch_ns());
    flame.insert(flame.end(), remote.begin(), remote.end());
  }
  return obs::fold_spans(std::move(flame));
}

std::string FusionService::flamegraph_json() { return fold_flame().to_json(); }

ServiceReport FusionService::build_report() {
  ServiceReport report;
  report.jobs_submitted = static_cast<int>(jobs_.size());
  report.max_concurrent_jobs = max_concurrent_;

  // Jobs stranded at the deadline still have their virtual lanes open;
  // close them at now() so the exported trace is always balanced.
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  for (auto& job : jobs_) {
    const JobId id = job->record.id;
    if (job->queue_span_open) {
      tracer.virtual_end("queue_wait", job_track(id), vt_ns(sim_.now()), id);
      job->queue_span_open = false;
    }
    if (job->exec_span_open) {
      tracer.virtual_end("execute", job_track(id), vt_ns(sim_.now()), id);
      job->exec_span_open = false;
    }
  }

  // One pass over the records derives the job counts, the latency tails
  // and the tenant rows, so no two of them can disagree.
  std::vector<double> wait;
  std::vector<double> service_time;
  std::vector<double> latency;
  std::map<std::string, TenantAccount> tenants;
  SimTime last_finish = 0;
  for (auto& job : jobs_) {
    const JobRecord& r = job->record;
    TenantAccount& acc = tenants[r.tenant];
    acc.tenant = r.tenant;
    ++acc.jobs_submitted;
    acc.flops_charged += r.flops_charged;
    if (r.rejected != RejectReason::kNone) {
      ++report.jobs_rejected;
      ++acc.jobs_rejected;
    } else if (r.failed) {
      ++report.jobs_failed;
      ++acc.jobs_failed;
    } else if (r.completed) {
      ++report.jobs_completed;
      ++acc.jobs_completed;
      acc.wait_seconds += r.wait_seconds;
      acc.service_seconds += r.service_seconds;
      wait.push_back(r.wait_seconds);
      service_time.push_back(r.service_seconds);
      latency.push_back(r.wait_seconds + r.service_seconds);
      last_finish = std::max(last_finish, r.finish_time);
    }
    // run() is terminal: hand the records (Full-mode outcomes carry whole
    // composite images) to the report rather than duplicating them.
    report.jobs.push_back(std::move(job->record));
  }
  report.all_completed =
      report.jobs_completed ==
      report.jobs_submitted - report.jobs_rejected;

  report.makespan_seconds = to_seconds(last_finish);
  if (report.makespan_seconds > 0.0) {
    report.throughput_jobs_per_sec =
        static_cast<double>(report.jobs_completed) / report.makespan_seconds;
  }
  std::sort(wait.begin(), wait.end());
  std::sort(service_time.begin(), service_time.end());
  std::sort(latency.begin(), latency.end());
  report.wait_p50 = nearest_rank(wait, 0.50);
  report.wait_p95 = nearest_rank(wait, 0.95);
  report.wait_p99 = nearest_rank(wait, 0.99);
  report.service_p50 = nearest_rank(service_time, 0.50);
  report.service_p95 = nearest_rank(service_time, 0.95);
  report.service_p99 = nearest_rank(service_time, 0.99);
  report.latency_p50 = nearest_rank(latency, 0.50);
  report.latency_p95 = nearest_rank(latency, 0.95);
  report.latency_p99 = nearest_rank(latency, 0.99);
  for (auto& [name, acc] : tenants) report.tenants.push_back(std::move(acc));

  // Streaming totals are a VIEW over the service registry: every streamed
  // run merged its series under "stream." as it executed, so the report
  // just reads them back (zeros when no streamed job ran).
  report.streaming.jobs =
      static_cast<int>(metrics_.counter_value("stream.jobs"));
  report.streaming.bytes_read = metrics_.counter_value("stream.bytes_read");
  report.streaming.max_peak_buffer_bytes = static_cast<std::uint64_t>(
      metrics_.gauge_value("stream.peak_buffer_bytes"));
  report.streaming.reader_stall_seconds =
      metrics_.gauge_value("stream.reader_stall_seconds");
  report.streaming.compute_stall_seconds =
      metrics_.gauge_value("stream.compute_stall_seconds");

  report.simd_backend = linalg::kernels::backend();
  report.metrics_json = metrics_.to_json();
  if (scraper_ != nullptr) {
    report.metrics_timeline_json = scraper_->timeline_json();
    for (const obs::MetricsSample& s : scraper_->samples()) {
      const auto it = s.values.gauges.find("service.admission_pressure");
      report.admission_pressure.push_back(
          {s.t_seconds, it == s.values.gauges.end() ? 0.0 : it->second});
    }
    if (!config_.metrics_timeline_path.empty() &&
        !scraper_->write_timeline(config_.metrics_timeline_path)) {
      RIF_LOG_WARN("service", "cannot write metrics timeline to "
                                  << config_.metrics_timeline_path);
    }
  }
  report.protocol = runtime_->stats();
  report.network = network_->stats();
  report.sim_events = sim_.events_executed();
  report.remote_workers_attached = static_cast<int>(remote_nodes_.size());
  report.remote_jobs =
      static_cast<int>(metrics_.counter_value("service.remote_jobs"));
  report.remote_fallbacks =
      static_cast<int>(metrics_.counter_value("service.remote_fallbacks"));
  report.remote_disconnects =
      static_cast<int>(metrics_.counter_value("remote.disconnects"));
  // Flamegraph: empty when tracing was off.
  if (tracer.enabled()) {
    report.flamegraph = fold_flame();
    report.flamegraph_json = report.flamegraph.to_json();
  }
  return report;
}

}  // namespace rif::service
