#include "service/service.h"

#include "service/remote_exec.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/parallel/parallel_pct.h"
#include "hsi/chunked_reader.h"
#include "linalg/kernels.h"
#include "obs/span_tracer.h"
#include "runtime/chunk_geometry.h"
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
  if (request.mode == JobMode::kStreaming) {
    // Streaming jobs fuse a FILE on the host pool; the simulated actors
    // only play out timing/placement, so an in-memory cube (or Full-mode
    // actor execution) alongside is a contradiction. Chunk-geometry bounds
    // are the engine's own (runtime/chunk_geometry.h): a request the
    // engine would refuse mid-run is refused here, at submission.
    if (request.cube_path.empty() || cfg.cube != nullptr ||
        cfg.mode == core::ExecutionMode::kFull ||
        config_.execution_threads <= 0) {
      return RejectReason::kBadConfig;
    }
    if (const char* error = runtime::validate_chunk_geometry(
            request.chunk_lines, request.queue_depth)) {
      RIF_LOG_WARN("service", "streaming request rejected: " << error);
      return RejectReason::kBadConfig;
    }
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
  ledger_.record_submitted(request.tenant);

  RejectReason reason = validate(request);

  // The kAdaptive counter-offer: a Full-mode cube that can NEVER fit the
  // memory budget is a guaranteed kOverMemoryBudget — unless the tenant
  // attached a cube_path, which is consent to run the same scene as a
  // Streaming job whose demand is queue_depth chunk buffers instead of
  // the cube. Convert, then let the normal streaming validation/budgeting
  // below treat it like any other streamed submission.
  if (reason == RejectReason::kNone && request.mode == JobMode::kFull &&
      config_.admission == AdmissionPolicy::kAdaptive &&
      config_.host_memory_budget > 0 && exec_pool_ != nullptr &&
      request.config.cube != nullptr && !request.cube_path.empty() &&
      request.config.cube->bytes() > config_.host_memory_budget) {
    request.mode = JobMode::kStreaming;
    request.config.cube = nullptr;
    request.config.mode = core::ExecutionMode::kCostOnly;
    job->record.mode = JobMode::kStreaming;
    job->record.counter_offered = true;
    metrics_.counter("service.counter_offers").add(1);
    RIF_LOG_DEBUG("service", "job " << id
                                    << " counter-offered as streaming ("
                                    << request.cube_path << ")");
    reason = validate(request);
  }

  if (reason == RejectReason::kNone &&
      request.mode == JobMode::kStreaming) {
    // Structural validation of the file itself: parseable header, data
    // length matching the dims (the shared cube_io validation path). The
    // header also gives the job its shape — for the cost-model actors —
    // and its budgeted peak memory: queue_depth chunk buffers, NOT the
    // cube. That is the admission-control point of Streaming mode.
    const auto reader = hsi::ChunkedCubeReader::open(request.cube_path);
    if (!reader) {
      reason = RejectReason::kBadConfig;
    } else {
      request.config.shape = {reader->samples(), reader->lines(),
                              reader->bands()};
      job->record.memory_demand =
          static_cast<std::uint64_t>(request.queue_depth) *
          reader->chunk_bytes(std::min(request.chunk_lines,
                                       reader->lines()));
    }
  } else if (reason == RejectReason::kNone &&
             request.config.cube != nullptr) {
    // A resident cube is the job's host working set, whole.
    job->record.memory_demand = request.config.cube->bytes();
  }
  if (reason == RejectReason::kNone && config_.host_memory_budget > 0 &&
      job->record.memory_demand > config_.host_memory_budget) {
    reason = RejectReason::kOverMemoryBudget;
  }

  metrics_.counter("service.submitted").add(1);
  metrics_.counter("tenant." + request.tenant + ".submitted").add(1);
  if (reason != RejectReason::kNone) {
    job->record.rejected = reason;
    ledger_.record_rejected(request.tenant);
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
    ledger_.record_rejected(job.record.tenant);
    metrics_.counter("service.rejected").add(1);
    metrics_.counter("tenant." + job.record.tenant + ".rejected").add(1);
    --outstanding_;
    RIF_LOG_WARN("service", "job " << id << " rejected: queue full");
    return;
  }
  queue_.push(id, job.record.priority, job.record.workers,
              job.record.memory_demand,
              job.record.mode == JobMode::kStreaming);
  job.enqueue_time = sim_.now();
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
  // A remote worker whose connection dropped is as gone as a crashed sim
  // node — the pool's atomic liveness keeps it out of new leases without
  // the sim thread touching the poll thread's locks.
  const cluster::NodeFilter alive = [this](cluster::NodeId n) {
    return cluster_.node(n).alive() &&
           (remote_pool_ == nullptr || remote_pool_->node_alive(n));
  };
  RIF_TRACE_SPAN("admission");
  while (true) {
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
    const JobId id = scheduler_.pick(queue_, leases_.free_nodes(alive),
                                     free_memory, total_memory, pressure);
    if (id == kNoJob) break;
    const bool removed = queue_.remove(id);
    RIF_CHECK(removed);
    publish_queue_gauges();
    metrics_.gauge("service.queued_memory_demand", runtime::GaugeKind::kSum)
        .set(static_cast<double>(queue_.total_memory_demand()));
    RIF_TRACE_COUNTER("service.queue_occupancy",
                      static_cast<double>(queue_.size()));
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

  // With a host execution pool, a Full-mode job's pixels are fused on the
  // shared pool (execute_host_jobs, after the virtual run decides timing)
  // and the simulated actors run CostOnly. Placement, leases and message
  // flow are unchanged, but virtual time and flops then follow the cost
  // model's estimates rather than the data-dependent counts a Full-mode
  // actor run would charge — the host pool trades that fidelity for
  // running the arithmetic once instead of twice.
  core::FusionJobConfig sim_config = job.request.config;
  if (exec_pool_ != nullptr &&
      sim_config.mode == core::ExecutionMode::kFull) {
    job.host_execute = true;
    sim_config.mode = core::ExecutionMode::kCostOnly;
    sim_config.cube = nullptr;
  }
  // A Streaming job's actors always run CostOnly (validate guarantees it):
  // placement, leases and message flow play out on the virtual timeline
  // while the pixels stream from disk on the host pool afterwards.
  if (job.request.mode == JobMode::kStreaming) job.stream_execute = true;
  memory_in_use_ += job.record.memory_demand;
  metrics_.gauge("service.memory_in_use", runtime::GaugeKind::kSum)
      .set(static_cast<double>(memory_in_use_));
  RIF_TRACE_COUNTER("service.memory_in_use",
                    static_cast<double>(memory_in_use_));
  // Close the job's queue_wait lane and open its execute lane at the same
  // virtual instant; queue_wait_seconds is exactly that span's length.
  if (job.enqueue_time >= 0) {
    job.record.queue_wait_seconds = to_seconds(sim_.now() - job.enqueue_time);
  }
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
}

void FusionService::on_job_complete(JobId id) {
  PendingJob& job = *jobs_[static_cast<std::size_t>(id)];
  RIF_CHECK(!job.record.completed && !job.record.failed);
  job.record.completed = true;
  job.record.finish_time = sim_.now();
  job.record.wait_seconds =
      to_seconds(job.record.start_time - job.record.submit_time);
  job.record.service_seconds =
      to_seconds(job.record.finish_time - job.record.start_time);
  for (std::size_t i = 0; i < job.record.leased_nodes.size(); ++i) {
    job.record.flops_charged +=
        cluster_.node(job.record.leased_nodes[i]).flops_charged() -
        job.flops_at_start[i];
  }
  job.record.outcome = job.instance->take_outcome();
  if (job.exec_span_open) {
    obs::SpanTracer::instance().virtual_end("execute", job_track(id),
                                            vt_ns(sim_.now()), id);
    job.exec_span_open = false;
  }

  // Tear down the job's (quiescent) actors before the nodes change hands:
  // a retired worker must not heartbeat — or be billed — on a node leased
  // to the next tenant.
  runtime_->retire_job(id);
  leases_.release(id);
  memory_in_use_ -= job.record.memory_demand;
  metrics_.gauge("service.memory_in_use", runtime::GaugeKind::kSum)
      .set(static_cast<double>(memory_in_use_));
  RIF_TRACE_COUNTER("service.memory_in_use",
                    static_cast<double>(memory_in_use_));
  ledger_.record_completed(job.record);
  metrics_.counter("service.completed").add(1);
  metrics_.counter("tenant." + job.record.tenant + ".completed").add(1);
  metrics_.histogram("tenant." + job.record.tenant + ".wait_seconds")
      .observe(job.record.wait_seconds);
  metrics_.histogram("tenant." + job.record.tenant + ".latency_seconds")
      .observe(job.record.wait_seconds + job.record.service_seconds);
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
  job.record.failed = true;
  job.record.finish_time = sim_.now();
  job.record.wait_seconds =
      to_seconds(job.record.start_time - job.record.submit_time);
  job.record.service_seconds =
      to_seconds(job.record.finish_time - job.record.start_time);
  if (job.exec_span_open) {
    obs::SpanTracer::instance().virtual_end("execute", job_track(id),
                                            vt_ns(sim_.now()), id);
    job.exec_span_open = false;
  }

  // Abandon whatever survives of the job (manager, sibling worker groups)
  // so nothing keeps running inside a lease about to be reclaimed.
  runtime_->retire_job(id);
  leases_.release(id);
  memory_in_use_ -= job.record.memory_demand;
  metrics_.gauge("service.memory_in_use", runtime::GaugeKind::kSum)
      .set(static_cast<double>(memory_in_use_));
  RIF_TRACE_COUNTER("service.memory_in_use",
                    static_cast<double>(memory_in_use_));
  ledger_.record_failed(job.record);
  metrics_.counter("service.failed").add(1);
  metrics_.counter("tenant." + job.record.tenant + ".failed").add(1);
  --running_;
  --outstanding_;
  publish_queue_gauges();
  RIF_LOG_WARN("service", "job " << id << " failed (replica group lost)");
  dispatch();
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
  {
    RIF_TRACE_SPAN("sim_phase");
    while (outstanding_ > 0 && sim_.now() < config_.deadline) {
      if (!sim_.step()) break;
    }
  }
  // Phase-boundary scrapes bracket host execution, so even a run that
  // outraces the scrape period yields a timeline with distinct sim /
  // host-execution / final intervals.
  if (scraper_ != nullptr) scraper_->scrape_now();
  execute_host_jobs();
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
  params.jacobi = req.jacobi;
  params.job_id = job.record.id;
  params.deadline_seconds = config_.remote_job_deadline_seconds;
  params.shard_deadline_seconds = config_.remote_shard_deadline_seconds;
  params.resend_limit = config_.remote_resend_limit;
  params.resend_backoff = config_.remote_resend_backoff;
  params.metrics = &metrics_;
  RemoteExecResult r = execute_remote_job(*remote_pool_, workers, params);
  job.record.remote_disconnects += r.worker_disconnects;
  if (!r.completed) {
    ++remote_fallbacks_;
    metrics_.counter("service.remote_fallbacks").add(1);
    RIF_LOG_WARN("service", "job " << job.record.id
                                   << " lost its remote workers; falling "
                                      "back to the host pool");
    return false;
  }
  core::JobOutcome& out = job.record.outcome;
  out.composite = std::move(r.composite);
  out.eigenvalues = std::move(r.eigenvalues);
  out.unique_set_size = r.unique_set_size;
  out.screen_comparisons = r.screen_comparisons;
  out.merge_comparisons = r.merge_comparisons;
  job.record.remote_executed = true;
  job.record.remote_workers = r.shards;
  job.record.remote_requeued_tiles = r.tiles_requeued;
  job.record.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ++remote_jobs_;
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

void FusionService::execute_host_jobs() {
  if (exec_pool_ == nullptr) return;
  std::vector<PendingJob*> ready;
  for (auto& job : jobs_) {
    if ((job->host_execute || job->stream_execute) && job->record.completed) {
      ready.push_back(job.get());
    }
  }
  if (ready.empty()) return;

  // Jobs leased onto remote workers execute over the socket protocol
  // first, serially — the pool's event queue is shared, so two
  // coordinators cannot drain it at once. A job whose workers all died
  // stays in `ready` and falls back to the host waves below.
  if (remote_pool_ != nullptr) {
    std::vector<PendingJob*> rest;
    rest.reserve(ready.size());
    for (PendingJob* job : ready) {
      if (job->stream_execute || !execute_remote(*job)) {
        rest.push_back(job);
      }
    }
    ready = std::move(rest);
    if (ready.empty()) return;
  }

  // Jobs fan out onto the ONE shared pool; each job's engine nests its
  // own parallel stages inside its task. The per-job budget (tiles it can
  // occupy the pool with) is derived from what the Scheduler admitted:
  // leased workers x tiles_per_worker.
  //
  // The host-memory budget must hold HERE, not just on the virtual
  // timeline: admission serializes virtual concurrency, but host
  // execution happens after the whole virtual run, so two jobs that never
  // overlapped virtually would still have their working sets live at the
  // same wall-clock moment. Partition the ready jobs into waves whose
  // summed demand fits the budget (first-fit in job order; every single
  // job fits alone — over-budget demands were rejected at submit) and run
  // the waves back to back.
  std::vector<std::vector<PendingJob*>> waves;
  if (config_.host_memory_budget == 0) {
    waves.push_back(std::move(ready));
  } else {
    std::vector<std::uint64_t> wave_demand;
    for (PendingJob* job : ready) {
      const std::uint64_t demand = job->record.memory_demand;
      std::size_t w = 0;
      while (w < waves.size() &&
             wave_demand[w] + demand > config_.host_memory_budget) {
        ++w;
      }
      if (w == waves.size()) {
        waves.emplace_back();
        wave_demand.push_back(0);
      }
      waves[w].push_back(job);
      wave_demand[w] += demand;
    }
  }

  using clock = std::chrono::steady_clock;
  const auto seconds_between = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const double idle_before = exec_pool_->idle_seconds();
  const auto phase_start = clock::now();
  RIF_TRACE_SPAN("host_execution");
  for (const auto& wave : waves) {
    exec_pool_->parallel_tasks(
        static_cast<int>(wave.size()), [&](int k) {
          PendingJob& job = *wave[static_cast<std::size_t>(k)];
          // Ambient attribution for the task thread: every span and log
          // line below — including the engines' per-chunk/per-tile spans,
          // which capture it at entry and hand it to pool workers and the
          // reader thread — carries this job's id.
          obs::JobScope job_scope(job.record.id);
          RIF_TRACE_SPAN("host_execute");
          const auto job_start = clock::now();
          const core::FusionJobConfig& req = job.request.config;
          core::PctConfig pct;
          pct.screening_threshold = req.screening_threshold;
          pct.output_components = req.output_components;
          pct.jacobi = req.jacobi;
          // The job's pool budget (tiles screened at once) is the
          // workers x tiles_per_worker the Scheduler admitted.
          const int tiles = job.record.workers * req.tiles_per_worker;
          core::PctResult r;
          if (job.stream_execute) {
            // Out-of-core: the job's cube streams from disk in bounded
            // memory, each chunk cut into `tiles` sub-tiles.
            stream::StreamingConfig cfg;
            cfg.pct = pct;
            cfg.chunk_lines = job.request.chunk_lines;
            cfg.queue_depth = job.request.queue_depth;
            cfg.tiles_per_chunk = tiles;
            // Every streamed run's registry merges into the service's under
            // one prefix: concurrent jobs aggregate (counters add, peaks
            // max), and the report's StreamingTotals reads the result.
            cfg.metrics = &metrics_;
            cfg.metrics_prefix = "stream.";
            if (job.request.autotune) {
              runtime::AutotuneConfig tune;
              tune.initial_chunk_lines = 0;  // start from the tenant's value
              // The clamp the tenant already agreed to: the demand the
              // Scheduler admitted. Tuning may reshape chunks vs depth but
              // never outgrow the admitted footprint.
              tune.memory_budget = job.record.memory_demand;
              cfg.autotune = tune;
            }
            auto streamed = stream::fuse_streaming(job.request.cube_path,
                                                   *exec_pool_, cfg);
            if (!streamed) {
              // Validated at submit, so this is a mid-run I/O failure (file
              // vanished, disk error). The virtual run is already over:
              // record the job failed and keep the service report honest.
              RIF_LOG_WARN("service", "streaming job "
                                          << job.record.id << " lost "
                                          << job.request.cube_path);
              job.record.completed = false;
              job.record.failed = true;
              job.record.host_seconds =
                  seconds_between(job_start, clock::now());
              return;  // ledger reclassified after the waves (single thread)
            }
            job.record.stream = streamed->stats;
            metrics_.counter("stream.jobs").add(1);
            r = std::move(*streamed);
          } else {
            core::ParallelPctConfig cfg;
            cfg.pct = pct;
            cfg.tiles = tiles;
            r = core::fuse_parallel(*req.cube, *exec_pool_, cfg);
          }
          core::JobOutcome& out = job.record.outcome;
          out.composite = std::move(r.composite);
          out.eigenvalues = std::move(r.eigenvalues);
          out.unique_set_size = r.unique_set_size;
          out.screen_comparisons = r.screen_comparisons;
          out.merge_comparisons = r.merge_comparisons;
          job.record.host_seconds = seconds_between(job_start, clock::now());
        });
  }

  // A host-execution failure (streaming I/O lost mid-run) was discovered
  // after the job's virtual completion: move it from the tenant's
  // completed bucket to failed so the per-tenant ledger agrees with the
  // job records in the same report.
  for (const auto& wave : waves) {
    for (PendingJob* job : wave) {
      if (job->record.failed) {
        ledger_.reclassify_completed_as_failed(job->record);
      }
    }
  }

  // Busy/idle accounting over the phase: pool capacity is threads * wall,
  // and the pool reports parked (idle) execution-thread time directly.
  host_stats_.threads = exec_pool_->size();
  host_stats_.wall_seconds = seconds_between(phase_start, clock::now());
  const double capacity =
      host_stats_.wall_seconds * static_cast<double>(host_stats_.threads);
  host_stats_.idle_seconds = std::min(
      capacity, std::max(0.0, exec_pool_->idle_seconds() - idle_before));
  host_stats_.busy_seconds = capacity - host_stats_.idle_seconds;
  host_stats_.utilization =
      capacity > 0.0 ? host_stats_.busy_seconds / capacity : 0.0;
  metrics_.gauge("host_pool.busy_seconds").record(host_stats_.busy_seconds);
  metrics_.gauge("host_pool.wall_seconds").record(host_stats_.wall_seconds);
  metrics_.gauge("host_pool.utilization").set(host_stats_.utilization);
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

std::string FusionService::flamegraph_json() {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  std::vector<obs::FlameSpan> flame;
  if (tracer.enabled()) flame = obs::tracer_flame_spans(tracer);
  if (telemetry_ != nullptr) {
    std::vector<obs::FlameSpan> remote =
        telemetry_->flame_spans(tracer.epoch_ns());
    flame.insert(flame.end(), remote.begin(), remote.end());
  }
  return obs::fold_spans(std::move(flame)).to_json();
}

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
      if (job->enqueue_time >= 0) {
        job->record.queue_wait_seconds =
            to_seconds(sim_.now() - job->enqueue_time);
      }
    }
    if (job->exec_span_open) {
      tracer.virtual_end("execute", job_track(id), vt_ns(sim_.now()), id);
      job->exec_span_open = false;
    }
  }

  LatencyStats wait;
  LatencyStats service_time;
  LatencyStats latency;
  SimTime last_finish = 0;
  for (auto& job : jobs_) {
    const JobRecord& r = job->record;
    if (r.rejected != RejectReason::kNone) {
      ++report.jobs_rejected;
    } else if (r.failed) {
      ++report.jobs_failed;
    } else if (r.completed) {
      ++report.jobs_completed;
      wait.record(r.wait_seconds);
      service_time.record(r.service_seconds);
      latency.record(r.wait_seconds + r.service_seconds);
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
  report.wait_p50 = wait.quantile(0.50);
  report.wait_p95 = wait.quantile(0.95);
  report.wait_p99 = wait.quantile(0.99);
  report.service_p50 = service_time.quantile(0.50);
  report.service_p95 = service_time.quantile(0.95);
  report.service_p99 = service_time.quantile(0.99);
  report.latency_p50 = latency.quantile(0.50);
  report.latency_p95 = latency.quantile(0.95);
  report.latency_p99 = latency.quantile(0.99);

  // Streaming totals are a VIEW over the service registry: every streamed
  // run merged its series under "stream." in execute_host_jobs, so the
  // report just reads them back (zeros when no streamed job ran).
  report.streaming.jobs =
      static_cast<int>(metrics_.counter_value("stream.jobs"));
  report.streaming.bytes_read = metrics_.counter_value("stream.bytes_read");
  report.streaming.max_peak_buffer_bytes = static_cast<std::uint64_t>(
      metrics_.gauge_value("stream.peak_buffer_bytes"));
  report.streaming.reader_stall_seconds =
      metrics_.gauge_value("stream.reader_stall_seconds");
  report.streaming.compute_stall_seconds =
      metrics_.gauge_value("stream.compute_stall_seconds");

  report.tenants = ledger_.snapshot();
  report.host_pool = host_stats_;
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
  report.remote_jobs = remote_jobs_;
  report.remote_fallbacks = remote_fallbacks_;
  if (remote_pool_ != nullptr) {
    report.remote_disconnects = remote_pool_->disconnects();
    report.remote_evictions = remote_pool_->evictions();
  }
  if (telemetry_ != nullptr) {
    report.remote_telemetry_batches = telemetry_->batches();
    report.remote_telemetry_rejected = telemetry_->rejected();
    report.remote_telemetry_spans = telemetry_->spans();
    report.remote_log_records = telemetry_->log_records();
  }
  if (ops_server_ != nullptr) {
    report.ops_requests = ops_server_->requests();
    report.ops_bad_requests = ops_server_->bad_requests();
    report.ops_dropped_frames = ops_server_->frames_dropped();
  }
  if (log_ring_ != nullptr) {
    report.log_records_captured = log_ring_->total();
    report.log_records_dropped = log_ring_->dropped();
  }
  // Flamegraph: fold the coordinator's own wall spans together with every
  // clock-aligned remote lane into one self/total-time table.
  if (tracer.enabled()) {
    std::vector<obs::FlameSpan> flame = obs::tracer_flame_spans(tracer);
    if (telemetry_ != nullptr) {
      std::vector<obs::FlameSpan> remote =
          telemetry_->flame_spans(tracer.epoch_ns());
      flame.insert(flame.end(), remote.begin(), remote.end());
    }
    report.flamegraph = obs::fold_spans(std::move(flame));
    report.flamegraph_json = report.flamegraph.to_json();
  }
  return report;
}

}  // namespace rif::service
