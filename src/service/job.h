// Job-level types of the multi-tenant fusion service.
//
// A tenant submits JobRequests (a FusionJobConfig plus identity, priority
// and a virtual arrival time); the service answers with a SubmitResult
// (typed rejection instead of hanging on impossible requests) and, after the
// run, a JobRecord per job — the service-side analog of the single-job
// world's FusionReport. The records are the only per-job store: the
// report's counts, latency tails and tenant rows are all derived from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "core/distributed/fusion_job.h"
#include "scp/types.h"
#include "stream/streaming_engine.h"
#include "support/time.h"

namespace rif::service {

using JobId = scp::JobId;
inline constexpr JobId kNoJob = scp::kNoJob;

/// What a job's source is. submit() builds the source once
/// (stream::ChunkSource); its working set is the job's memory_demand and
/// the engine fuses it the same way in both modes.
///
///  * kFull      — the tenant hands the service an in-memory cube
///                 (FusionJobConfig::cube). Working set: the cube.
///  * kStreaming — the tenant hands the service a cube FILE (cube_path),
///                 streamed out-of-core. Working set: queue_depth chunk
///                 buffers, not the whole cube, so scenes larger than RAM
///                 become admissible. The mode also selects the stream.*
///                 registry series and the Scheduler's streaming preference.
enum class JobMode { kFull = 0, kStreaming = 1 };

inline const char* to_string(JobMode m) {
  switch (m) {
    case JobMode::kFull: return "full";
    case JobMode::kStreaming: return "streaming";
  }
  return "?";
}

/// Priority classes, strongest first. Queueing is FIFO within a class.
enum class Priority : int { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kPriorityClasses = 3;

inline const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "?";
}

/// Why a job was refused. kNone means accepted.
enum class RejectReason {
  kNone = 0,
  /// Malformed request (non-positive workers/tiles, Full mode without a
  /// cube, replication without a resilient service runtime, replication
  /// exceeding workers so replicas could not get distinct nodes, ...).
  kBadConfig,
  /// The job asks for more workers than the cluster will ever have free —
  /// admitting it would queue it forever.
  kTooManyWorkers,
  /// The bounded queue was full when the job arrived.
  kQueueFull,
  /// The working set of the job's source exceeds the service's
  /// host-memory budget outright — admitting it would queue it forever.
  kOverMemoryBudget,
};

inline const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "accepted";
    case RejectReason::kBadConfig: return "bad-config";
    case RejectReason::kTooManyWorkers: return "too-many-workers";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kOverMemoryBudget: return "over-memory-budget";
  }
  return "?";
}

struct JobRequest {
  std::string tenant;
  core::FusionJobConfig config;
  Priority priority = Priority::kNormal;
  /// Virtual time at which the request reaches the service.
  SimTime arrival = 0;

  JobMode mode = JobMode::kFull;
  /// Streaming mode: the cube file (`<path>` + `<path>.hdr`) to fuse
  /// out-of-core, opened once at submission as the job's source, whose
  /// header gives the job its shape. `config.cube` stays null. Requires
  /// ServiceConfig::execution_threads.
  ///
  /// A FULL-mode request may also set this: it marks the tenant's consent
  /// to the kAdaptive counter-offer — when the cube outruns the service's
  /// memory budget, the service streams this file as the job's source
  /// instead of rejecting it kOverMemoryBudget (see service.h).
  std::string cube_path;
  /// Streaming mode: image lines per chunk (the I/O and fold unit).
  /// Bounds shared with the engine: runtime/chunk_geometry.h.
  int chunk_lines = 64;
  /// Streaming mode: chunk buffers in flight (>= 3); with chunk_lines this
  /// sets the working set of the job's source, its budgeted peak memory.
  int queue_depth = 4;
};

struct SubmitResult {
  JobId id = kNoJob;
  RejectReason rejected = RejectReason::kNone;
  /// The service accepted the job by CONVERTING it: a Full-mode request
  /// whose cube outran the memory budget, admitted as Streaming over its
  /// cube_path (kAdaptive only). The tenant gets bounded-memory execution
  /// instead of a rejection.
  bool counter_offered = false;
  [[nodiscard]] bool accepted() const {
    return rejected == RejectReason::kNone;
  }
};

/// Everything the service knows about one job after the run.
struct JobRecord {
  JobId id = kNoJob;
  std::string tenant;
  Priority priority = Priority::kNormal;
  JobMode mode = JobMode::kFull;
  /// Accepted via the kAdaptive counter-offer: submitted Full, its source
  /// is the streamed cube_path (mode above reflects what RAN).
  bool counter_offered = false;
  int workers = 0;
  /// Peak host memory the Scheduler budgeted for this job: the working set
  /// of the job's source (0 when the job has none, e.g. CostOnly
  /// simulations).
  std::uint64_t memory_demand = 0;
  RejectReason rejected = RejectReason::kNone;
  bool completed = false;
  /// Accepted and started, but lost before completing: to failures on the
  /// virtual timeline, or to an execution that failed (a streamed cube
  /// file lost mid-read, a degenerate scene), found when the job reaches
  /// virtual completion. The registry counts such a job failed once, never
  /// completed.
  bool failed = false;

  SimTime submit_time = -1;
  SimTime start_time = -1;   ///< admission (lease granted); -1 = never ran
  SimTime finish_time = -1;  ///< completion or failure; -1 = never finished
  /// submit -> start. Arrival is when the request enters the queue, so
  /// this is also the length of the job's "queue_wait" trace span.
  double wait_seconds = 0.0;
  double service_seconds = 0.0;  ///< start -> finish (the per-job analog of
                                 ///< FusionReport::elapsed_seconds)
  /// Worker nodes leased exclusively to this job while it ran.
  std::vector<cluster::NodeId> leased_nodes;
  /// Flops charged to the leased nodes during the job's tenure.
  double flops_charged = 0.0;
  /// Wall-clock seconds of this job's real execution: its fused run on the
  /// shared host pool, or its remote run (0 when the job did not
  /// host-execute). Jobs holding leases at once execute concurrently, so
  /// these overlap and may sum past the run's wall time.
  double host_seconds = 0.0;
  /// True when the composite was computed by real worker processes over
  /// the socket transport (service/remote_exec.h) rather than the host
  /// pool or the simulated actors.
  bool remote_executed = false;
  /// Covariance shards = live workers when the remote attempt started; a
  /// host fallback runs at this count too. 0 when no attempt started.
  int remote_workers = 0;
  int remote_requeued_tiles = 0;  ///< tiles reassigned after disconnects
  int remote_disconnects = 0;     ///< workers lost while this job ran
  /// Streaming-mode pipeline counters (zeros for every other job): chunk
  /// count, bytes streamed, per-stage times and stall seconds, peak buffer
  /// footprint. The per-job view of the pipeline's health — reader stall
  /// means backpressure (compute-bound), compute stall means starvation.
  stream::StreamingStats stream;
  core::JobOutcome outcome;
};

}  // namespace rif::service
