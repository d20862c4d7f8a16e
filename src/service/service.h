// FusionService — the multi-tenant fusion service.
//
// ## Architecture
//
// The seed reproduces the paper's single-job world: one sensor, one
// manager, one distributed spectral-screening PCT run, one virtual cluster
// built per call. FusionService inverts that: it owns ONE long-lived
// virtual cluster (node 0 = service head / "sensor", nodes 1..N = worker
// pool), ONE network model and ONE scp runtime, and executes a *stream* of
// fusion jobs submitted by multiple tenants against that shared substrate —
// the shape of ICPP's remote-execution servers, where many independent jobs
// share one runtime.
//
// The pipeline per job:
//
//   submit()  -> structural validation. Impossible requests (more workers
//                than the pool will ever have, malformed configs, a cube
//                file that fails to open) are refused with a typed
//                RejectReason instead of queuing forever. submit() also
//                builds the job's source once (stream::ChunkSource): the
//                resident cube, or the cube file a Streaming job names.
//                Its shape is the job's shape and its working set the
//                job's memory demand, the one number admission budgets.
//   arrival   -> the request enters the JobQueue at its virtual arrival
//                time: strict priority classes (high / normal / batch),
//                FIFO within a class; a bounded queue rejects overflow
//                with RejectReason::kQueueFull.
//   admission -> the Scheduler picks the next queued job that fits the
//                free worker capacity and memory budget
//                (AdmissionPolicy::kFirstFit, kSmallestFirst or kAdaptive —
//                see scheduler.h); the LeaseBook grants
//                the job an exclusive lease on `workers` nodes, so
//                concurrent jobs always run on disjoint worker sets.
//   execution -> a FusionJobInstance spawns the job's actor topology on the
//                leased nodes (manager on the head node), keyed by job id
//                in the shared runtime; regeneration of failed replicas is
//                confined to the job's leased nodes. With a host pool the
//                actors run CostOnly and the job's source is fused for
//                real from admission on, inside the lease: a resident cube
//                leased onto live remote workers runs over them, on the
//                service thread; every other job, and every remote attempt
//                that fell back, is one stream::fuse_chunks task on the
//                pool.
//   completion-> the manager's completion callback fires at virtual
//                completion time. The service waits for the job's
//                execution, then the record takes its wait, service time,
//                the flops charged on its leased nodes and the execution's
//                pixels over the actors' shadow outcome. A job whose
//                execution failed is recorded failed there instead. Only
//                then are the lease and the memory released, and the
//                scheduler immediately tries to admit more queued work, so
//                the memory budget holds for real executions too. The
//                registry counts each job completed or failed once, here.
//
// ## Report mapping
//
// The paper's single-job FusionReport maps onto the service as follows:
// per job, JobRecord::service_seconds is FusionReport::elapsed_seconds and
// JobRecord::outcome is FusionReport::outcome; protocol/network counters,
// which are properties of the shared substrate, appear once, service-wide,
// in ServiceReport. On top, ServiceReport adds what only exists with many
// jobs: throughput (completed jobs per second of virtual time), queue
// wait / service time / total latency tails (p50/p95/p99) and the
// per-tenant rows.
//
// Every service fact is stored once. The JobRecords are the per-job truth:
// build_report derives the job counts, the latency tails and the tenant
// rows from them in one pass. The MetricsRegistry is the live,
// thread-safe view the ops endpoint and the scraper read; the report's
// remote job/fallback/disconnect counts are read from it. Everything else
// live — evictions, telemetry ingest, ops requests, the log ring — is read
// from its owner (remote_pool(), remote_telemetry(), ops_server(),
// log_ring()), which outlives run().
//
// ## Semantics notes
//
// * The protocol mode (resilient / regenerate) is a property of the shared
//   runtime (ServiceConfig::runtime), not of individual jobs; a job asking
//   for replication > 1 on a non-resilient service is rejected kBadConfig.
// * All submissions are declared before run(); arrivals then play out on
//   the virtual timeline. This keeps runs bit-reproducible.
// * A job that loses a whole replica group (all replicas dead, regeneration
//   off or impossible) is recorded failed, its lease is reclaimed, and the
//   service keeps going — one tenant's lost job never wedges the cluster.
//   On a non-resilient runtime there is no failure detector, so a crash of
//   a leased node fails the leaseholder immediately (actors are
//   fate-shared with their node).
// * On completion or failure the service retires the job's actors
//   synchronously (Runtime::retire_job) before releasing the lease, so no
//   zombie heartbeats or regenerations land on re-leased nodes and the
//   per-job flops attribution stays exact.
// * Leases are granted on live nodes only; a crashed worker node rejoins
//   the grantable pool when (if) it is repaired. Liveness is the virtual
//   cluster's, so leases follow the virtual timeline alone: a remote
//   worker whose connection dropped stays leasable, and a job leased onto
//   it runs on its surviving remote workers or falls back to the host.
// * With AdmissionPolicy::kAdaptive the service becomes feedback-driven:
//   under memory pressure (free budget <= half) the Scheduler prefers
//   streaming jobs, and a Full-mode submission whose resident source's
//   working set outruns the budget is COUNTER-OFFERED instead of rejected
//   kOverMemoryBudget: its source becomes the file at its cube_path
//   (consent = the tenant attached one), streamed in queue_depth chunk
//   buffers, and the job runs Streaming. The conversion is flagged in
//   SubmitResult/JobRecord::counter_offered.
// * Observability is registry-backed: one runtime::MetricsRegistry spans
//   the service (per-tenant admission counters and latency histograms,
//   host-pool series, every streamed run's merged stage/queue series);
//   ServiceReport::streaming is a view over it and metrics_json its JSON
//   snapshot.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "cluster/lease.h"
#include "cluster/remote_pool.h"
#include "net/fault_injection.h"
#include "core/distributed/fusion_job.h"
#include "core/parallel/thread_pool.h"
#include "net/network.h"
#include "obs/flamegraph.h"
#include "obs/metrics_scraper.h"
#include "obs/ops_server.h"
#include "obs/remote_telemetry.h"
#include "runtime/metrics.h"
#include "scp/runtime.h"
#include "service/job.h"
#include "service/job_queue.h"
#include "service/scheduler.h"
#include "sim/simulation.h"
#include "support/time.h"

namespace rif::service {

struct ServiceConfig {
  /// Size of the leasable worker pool (cluster is this + 1 head node).
  int worker_nodes = 16;

  core::NetworkKind network = core::NetworkKind::kLan;
  net::LanConfig lan;
  net::SmpConfig smp;
  cluster::NodeConfig node;
  /// Shared runtime protocol configuration; `resilient` / `regenerate`
  /// here govern every job.
  scp::RuntimeConfig runtime;

  AdmissionPolicy admission = AdmissionPolicy::kFirstFit;
  /// Queued-job bound; arrivals beyond it are rejected. 0 = unbounded.
  std::size_t max_queue_length = 0;

  /// Host threads for REAL execution of admitted jobs on one shared
  /// ThreadPool (0 = off: Full-mode pixels flow through the simulated
  /// actors instead, and Streaming jobs are refused). When on, each
  /// admitted job's source — resident cube or streamed file — is fused with
  /// the shared-memory engine (stream::fuse_chunks, at one covariance shard
  /// or the shard count of a remote attempt it fell back from) as one pool
  /// task, submitted at admission; its parallelism budget — the number of
  /// tiles it may occupy the pool with — is workers * tiles_per_worker,
  /// where `workers` is what the Scheduler actually admitted. Jobs holding
  /// leases at once execute concurrently as nested parallel work on
  /// exactly these threads (the service thread does not help), which the
  /// help-while-waiting ThreadPool makes deadlock-free.
  int execution_threads = 0;

  /// Host-memory budget (bytes) for the peak working sets of concurrently
  /// admitted jobs. The Scheduler admits a job only when its demand — the
  /// working set of its source: the whole cube when resident, queue_depth
  /// chunk buffers when streamed — fits the unspent budget, so co-tenants
  /// cannot collectively blow the host's RAM; a job whose demand exceeds
  /// the budget outright is rejected kOverMemoryBudget at submission.
  /// 0 = unbudgeted (memory is not part of admission).
  std::uint64_t host_memory_budget = 0;

  /// Remote worker plane (requires execution_threads > 0 for the host
  /// fallback). When remote_workers > 0, run() opens the real socket
  /// transport and waits up to remote_wait_seconds for that many worker
  /// processes; each welcomed worker leases itself into the pool as one
  /// extra node (ids above the host pool). Admitted Full-mode jobs whose
  /// lease lands on remote nodes execute over the socket protocol
  /// (service/remote_exec.h); a worker disconnect re-queues its shards
  /// onto survivors, and a job that loses every remote worker falls back
  /// to the host pool. validate() sizes the worker bound to host pool +
  /// expected remote workers, so jobs may target capacity that arrives at
  /// run() — if fewer workers connect, oversized jobs strand in the queue
  /// until the deadline.
  int remote_workers = 0;
  /// Loopback TCP port to listen on (0 = ephemeral, see remote_port()), or
  /// a Unix socket path; ignored when remote_spawn_local is set.
  std::uint16_t remote_port = 0;
  std::string remote_socket_path;
  /// Spawn the remote workers as in-process threads over socketpairs
  /// instead of listening — same protocol, no separate processes (tests,
  /// single-machine runs).
  bool remote_spawn_local = false;
  double remote_wait_seconds = 30.0;

  /// Liveness supervision for the remote plane (cluster/remote_pool.h):
  /// workers idle past the heartbeat get kPing, workers silent past the
  /// hung timeout are evicted into the requeue path. Defaults keep a hung
  /// worker from pinning a job while staying far above any realistic
  /// shard compute time. Zeros disable.
  double remote_heartbeat_seconds = 0.25;
  double remote_hung_timeout_seconds = 5.0;
  /// Per-item (tile / covariance shard) deadline, resend budget and
  /// backoff for the remote coordinator (service/remote_exec.h).
  double remote_shard_deadline_seconds = 10.0;
  int remote_resend_limit = 3;
  double remote_resend_backoff = 2.0;
  /// Per-job wall deadline on the remote path before host fallback.
  double remote_job_deadline_seconds = 300.0;

  /// Wire-level chaos plan for the remote plane (tests / soak drills):
  /// when non-empty it is installed as a net::FaultInjectingTransport
  /// under the worker pool, and its counters appear in the service
  /// registry under "remote.faults.".
  net::WireFaultPlan remote_faults;

  /// Attack script against the shared cluster (virtual timeline).
  std::vector<cluster::FailureEvent> failures;

  /// Hard stop for the whole service run (virtual time).
  SimTime deadline = from_seconds(1.0e7);

  /// Wall period of the background MetricsScraper that samples the service
  /// registry into a time series during run() (obs/metrics_scraper.h).
  /// Every scrape also derives the admission-pressure gauge the kAdaptive
  /// scheduler reads. <= 0 disables the scraper (the report's timeline is
  /// then empty).
  double scrape_period_seconds = 0.05;
  /// When non-empty, run() writes the scraped timeline
  /// (MetricsScraper::timeline_json) to this file as well as embedding it
  /// in ServiceReport::metrics_timeline_json.
  std::string metrics_timeline_path;
  /// When non-empty, every scrape is ALSO appended to this file as one
  /// NDJSON line (obs::metrics_sample_json schema) while the run is still
  /// going — a live feed, where metrics_timeline_path is a post-run
  /// artifact. Remote workers' shipped snapshots appear in the same lines
  /// under "remote.worker.<node>." series.
  std::string metrics_stream_path;

  /// Live ops plane (obs/ops_server.h): a read-only introspection endpoint
  /// answering status / metrics / subscribe-metrics / flamegraph / logs
  /// over RIF1 frames, live from CONSTRUCTION (not just during run()) so a
  /// dashboard can attach before the stream starts and keep watching after
  /// it ends. Enabling it also installs the service's LogRing as the
  /// process-wide structured log sink and routes remote workers' shipped
  /// log records into it with node attribution.
  bool ops_enabled = false;
  /// Loopback TCP port for the ops endpoint (0 = ephemeral, see
  /// FusionService::ops_server()->port()), or a Unix socket path.
  std::uint16_t ops_port = 0;
  std::string ops_socket_path;
  /// Capacity of the in-memory log ring the `logs` command tails.
  std::size_t ops_log_ring = 1024;
};

/// Aggregated streaming-pipeline counters over the service's completed
/// Streaming-mode jobs (see stream::StreamingStats for the per-job view).
struct StreamingTotals {
  int jobs = 0;                   ///< streaming jobs host-executed
  std::uint64_t bytes_read = 0;   ///< file bytes streamed, all jobs
  /// Largest single-job chunk-buffer high-water — the number that shows
  /// bounded-memory ingest actually held (vs whole-cube footprints).
  std::uint64_t max_peak_buffer_bytes = 0;
  double reader_stall_seconds = 0.0;   ///< backpressure (compute-bound)
  double compute_stall_seconds = 0.0;  ///< starvation (I/O-bound)
};

/// One tenant's row of the report, summed from its JobRecords: every
/// submitted job lands in exactly one of completed / rejected / failed
/// (or none, if it was stranded at the deadline). Flops are charged for
/// every job that reached virtual completion — a job whose execution
/// failed is recorded failed there, but still occupied its leased nodes —
/// while the wait and service sums, like the report's quantiles, cover
/// completed jobs only.
struct TenantAccount {
  std::string tenant;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_failed = 0;  ///< accepted but lost
  /// Flops charged to the worker nodes leased to this tenant's jobs.
  double flops_charged = 0.0;
  double wait_seconds = 0.0;     ///< sum of completed jobs' wait_seconds
  double service_seconds = 0.0;  ///< sum of completed jobs' service_seconds
};

struct ServiceReport {
  /// Every accepted job completed (none failed, none stranded at deadline).
  bool all_completed = false;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int jobs_rejected = 0;
  int jobs_failed = 0;
  /// High-water mark of jobs simultaneously holding leases.
  int max_concurrent_jobs = 0;

  double makespan_seconds = 0.0;  ///< virtual time of the last completion
  double throughput_jobs_per_sec = 0.0;

  // Tail latency over completed jobs (virtual seconds).
  double wait_p50 = 0.0, wait_p95 = 0.0, wait_p99 = 0.0;
  double service_p50 = 0.0, service_p95 = 0.0, service_p99 = 0.0;
  double latency_p50 = 0.0, latency_p95 = 0.0, latency_p99 = 0.0;

  std::vector<JobRecord> jobs;         ///< by job id (includes rejects)
  std::vector<TenantAccount> tenants;  ///< sorted by tenant name

  scp::ProtocolStats protocol;  ///< service-wide (shared substrate)
  net::NetworkStats network;
  /// Streaming-pipeline totals (zeros when no Streaming job ran). A view
  /// over the service metrics registry — the per-job engines merge their
  /// run registries into it, and this is the walk of those series.
  StreamingTotals streaming;
  /// ACTIVE SIMD tier of the kernel layer this service executed with
  /// ("avx2" | "sse2" | "neon" | "scalar") — runtime-dispatched (cpuid /
  /// HWCAP / RIF_SIMD), so it attributes every perf number in this report
  /// to the ISA that actually produced it even on portable builds.
  std::string simd_backend;
  /// JSON snapshot of the service metrics registry at report time: every
  /// named counter/gauge/histogram (per-tenant admission and latency,
  /// host-pool utilisation, streaming queue/stage series) in the schema of
  /// runtime::MetricsRegistry::to_json — ready for a dashboard scrape.
  std::string metrics_json;
  /// The scraped registry time series (MetricsScraper::timeline_json
  /// schema), same document run() writes to
  /// ServiceConfig::metrics_timeline_path. Empty when the scraper was
  /// disabled.
  std::string metrics_timeline_json;
  /// The admission-pressure gauge (queued memory demand / free host
  /// budget; 0 when unbudgeted) at each scrape, in scrape order — the
  /// feedback signal kAdaptive reads, as a history a test or dashboard can
  /// replay. t_seconds is wall time since the scraper started.
  struct PressureSample {
    double t_seconds = 0.0;
    double pressure = 0.0;
  };
  std::vector<PressureSample> admission_pressure;
  std::uint64_t sim_events = 0;

  // Remote worker plane (zeros when ServiceConfig::remote_workers == 0),
  // read from the registry's service.remote_jobs,
  // service.remote_fallbacks and remote.disconnects.
  int remote_workers_attached = 0;  ///< workers that completed the handshake
  int remote_jobs = 0;              ///< jobs executed over the socket path
  int remote_fallbacks = 0;         ///< remote jobs that fell back to host
  int remote_disconnects = 0;       ///< worker connections lost during run()

  /// Flamegraph fold of the run's wall spans — host tracer lanes plus
  /// every remote worker's shipped spans on the unified timeline
  /// (obs/flamegraph.h). Rows sorted by self time; empty when tracing was
  /// off. `flamegraph_json` is the same table serialized (FLAME_*.json
  /// schema).
  obs::FlameTable flamegraph;
  std::string flamegraph_json;
};

class FusionService {
 public:
  explicit FusionService(ServiceConfig config = {});
  /// Teardown order matters with the ops plane attached: the scraper
  /// thread (whose on-scrape sink fans out to ops subscribers and samples
  /// the member registry) stops FIRST, then the ops poll thread, then the
  /// worker pool, then the global log sink is uninstalled — so no
  /// background thread can touch a member mid-destruction. Member
  /// destruction order alone gets this wrong: ops_server_ is declared
  /// after scraper_, so it would die while the scrape thread still
  /// publishes through it.
  ~FusionService();
  FusionService(const FusionService&) = delete;
  FusionService& operator=(const FusionService&) = delete;

  /// Register a request arriving at `request.arrival` on the virtual
  /// timeline. Must be called before run(). Structurally impossible
  /// requests are rejected synchronously with a typed reason.
  SubmitResult submit(JobRequest request);

  /// Play the submitted stream to completion (or deadline) and report.
  ServiceReport run();

  // --- introspection (tests, benches) --------------------------------------
  [[nodiscard]] int worker_nodes() const { return config_.worker_nodes; }
  [[nodiscard]] int running_jobs() const { return running_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] scp::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] const cluster::LeaseBook& leases() const { return leases_; }
  /// The service-lifetime metrics registry (admission, tenants, host pool,
  /// merged streaming runs). Live during run(); snapshot in
  /// ServiceReport::metrics_json.
  [[nodiscard]] runtime::MetricsRegistry& metrics() { return metrics_; }
  /// The remote worker pool, live during run(); nullptr when
  /// ServiceConfig::remote_workers == 0. Tests use it to inject crashes.
  [[nodiscard]] cluster::RemoteWorkerPool* remote_pool() {
    return remote_pool_.get();
  }
  /// Telemetry shipped back by remote workers (spans, metrics, clock
  /// offsets); nullptr when ServiceConfig::remote_workers == 0. Outlives
  /// run() — smokes export the unified trace from it afterwards.
  [[nodiscard]] obs::RemoteTelemetryCollector* remote_telemetry() {
    return telemetry_.get();
  }
  /// The live ops endpoint; nullptr unless ServiceConfig::ops_enabled.
  /// Running from construction until destruction (outlives run(), so a
  /// client can still read status/metrics/logs after the stream finished).
  [[nodiscard]] obs::OpsServer* ops_server() { return ops_server_.get(); }
  /// The structured log ring the ops `logs` command tails; nullptr unless
  /// ServiceConfig::ops_enabled.
  [[nodiscard]] LogRing* log_ring() { return log_ring_.get(); }

 private:
  /// What a job's execution hands the service thread, which alone writes
  /// the JobRecord.
  struct Execution {
    std::optional<stream::StreamingResult> result;  ///< nullopt = failed
    double seconds = 0.0;  ///< wall time of the run
  };

  struct PendingJob {
    JobRequest request;
    JobRecord record;
    /// Where the job's pixels come from, built once at submit: the
    /// resident cube, or the cube file a Streaming (or counter-offered)
    /// job streams. Null for a CostOnly job. Its shape and working set are
    /// the job's shape and memory_demand. Released when the job completes
    /// or fails, after its execution has ended.
    std::unique_ptr<stream::ChunkSource> source;
    /// The host-executed job's execution, started at admission: a pool
    /// task, or an already-ended remote run. Invalid before admission and
    /// once the service thread has taken its result.
    std::future<Execution> execution;
    std::unique_ptr<core::FusionJobInstance> instance;
    /// flops_charged() of each leased node at admission, for per-job
    /// attribution (leases are exclusive, so the delta is exact).
    std::vector<double> flops_at_start;
    /// Open virtual spans on the job's trace track ("queue_wait" /
    /// "execute"), so build_report can close a stranded job's spans at the
    /// deadline — the exported trace must always be balanced.
    bool queue_span_open = false;
    bool exec_span_open = false;
  };

  [[nodiscard]] RejectReason validate(const JobRequest& request) const;
  void on_arrival(JobId id);
  void on_node_failed(cluster::NodeId node);
  void dispatch();
  void start_job(JobId id, const cluster::NodeFilter& alive);
  /// Start the admitted host-executed job's execution (see
  /// ServiceConfig::execution_threads and remote_workers).
  void start_execution(PendingJob& job);
  /// Wait for the job's execution, if one is in flight, and record its
  /// wall time. Returns an empty Execution when none is.
  Execution await_execution(PendingJob& job);
  void on_job_complete(JobId id);
  void fail_job(JobId id);
  /// End a started job, once its execution has ended: record it completed
  /// or failed, retire its actors, release its lease, source and memory,
  /// count it in the registry, and admit more work.
  void settle(PendingJob& job, bool completed);
  /// A job with a source is executed for real when there is a host pool
  /// (remotely or on the pool; the simulated actors then run CostOnly for
  /// timing and placement); otherwise its actors fuse the pixels.
  [[nodiscard]] bool host_executes(const PendingJob& job) const {
    return job.source != nullptr && exec_pool_ != nullptr;
  }
  /// Open the socket transport and lease connected workers into the
  /// cluster/LeaseBook (run() preamble; no-op when remote_workers == 0).
  void attach_remote_workers();
  /// Execute one admitted job over its leased remote workers, leaving the
  /// ended run in job.execution; false means the caller should fall back
  /// to the host pool.
  [[nodiscard]] bool execute_remote(PendingJob& job);
  [[nodiscard]] ServiceReport build_report();
  /// Status document for the ops endpoint. Runs on the ops poll thread, so
  /// it reads only thread-safe state: registry atomics (the sim thread
  /// publishes service.queue_length / service.running_jobs gauges for it),
  /// the pool's locked accessors, the collector, and the log ring.
  [[nodiscard]] std::string status_json();
  /// The coordinator's wall spans and every clock-aligned remote lane,
  /// folded into one self/total-time table: the report's flamegraph and,
  /// serialized on demand, the ops endpoint's.
  [[nodiscard]] obs::FlameTable fold_flame();
  [[nodiscard]] std::string flamegraph_json();
  /// on-scrape sink: append to the NDJSON stream file (when open) and fan
  /// the same line out to ops subscribers. Scraper thread.
  void on_scrape_sample(const std::string& line);
  /// Mirror queue_/running_ into atomic gauges after every mutation, so
  /// the ops thread's status never touches sim-thread state.
  void publish_queue_gauges();

  ServiceConfig config_;
  runtime::MetricsRegistry metrics_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<scp::Runtime> runtime_;
  cluster::FailureInjector injector_;
  cluster::LeaseBook leases_;
  JobQueue queue_;
  Scheduler scheduler_;
  /// Background registry sampler, live during run() (see
  /// ServiceConfig::scrape_period_seconds). Its derive hook publishes the
  /// admission-pressure gauge every scrape.
  std::unique_ptr<obs::MetricsScraper> scraper_;
  /// Real-socket worker plane (see ServiceConfig::remote_workers).
  std::unique_ptr<cluster::RemoteWorkerPool> remote_pool_;
  /// Coordinator-side ingest for the workers' kTelemetry batches; wired as
  /// the pool's telemetry sink before start (outlives the pool so trace
  /// export happens after run()).
  std::unique_ptr<obs::RemoteTelemetryCollector> telemetry_;
  /// Live ops plane (ServiceConfig::ops_enabled): the structured log ring
  /// (installed as the process-wide Logger sink for this service's
  /// lifetime) and the introspection endpoint, both up from construction.
  std::unique_ptr<LogRing> log_ring_;
  std::unique_ptr<obs::OpsServer> ops_server_;
  /// Live NDJSON feed (ServiceConfig::metrics_stream_path), written by the
  /// scraper thread through on_scrape_sample under stream_mu_.
  std::mutex stream_mu_;
  std::ofstream metrics_stream_;
  /// Wall construction instant, the uptime axis of status_json().
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::vector<cluster::NodeId> remote_nodes_;  ///< leased-in remote node ids
  std::vector<std::unique_ptr<PendingJob>> jobs_;
  /// When execution_threads > 0. Declared after jobs_, so it is destroyed
  /// first: its threads finish every queued execution before the sources
  /// those read go away, even when run() leaves by an exception.
  std::unique_ptr<core::ThreadPool> exec_pool_;

  int running_ = 0;        ///< jobs currently holding leases
  int outstanding_ = 0;    ///< accepted jobs not yet completed/failed
  int max_concurrent_ = 0;
  /// Budgeted memory of jobs currently holding leases (admission debits,
  /// completion/failure credits; see ServiceConfig::host_memory_budget).
  std::uint64_t memory_in_use_ = 0;
  bool ran_ = false;
};

}  // namespace rif::service
