// Coordinator for running one fusion job across real worker processes.
//
// The manager steps — tile-order unique-set merge, mean and covariance
// shards, shard-order covariance merge, eigen-decomposition, colour
// placement — are core::FusionCoordinator, the same object the sim's
// ManagerActor drives; execute_remote_job only carries its messages over
// the worker pool's sockets. The composite is therefore byte-identical to
// the sim run and to fuse_parallel with the same tile/shard counts by
// construction: the sim stays the oracle for the real deployment.
//
// Fault handling: when a worker disconnects mid-job, every tile or
// covariance shard it owned is re-queued onto the survivors and the job
// completes without a restart. A worker that HANGS (or whose replies a
// degraded link eats) is caught by per-item deadlines: every assigned tile
// and every outstanding covariance shard has its own clock, and an item
// overdue is re-sent to a different live worker with an exponentially
// backed-off deadline, up to `resend_limit` attempts — then the job gives
// up and the caller falls back to the host pool. One chatty worker can no
// longer keep another worker's stalled work alive, because no global
// silence clock exists to reset. Determinism survives all of this because
// the merge orders are keyed by tile/shard index, never by which worker
// answered — a resent item computed twice lands in the same slot with the
// same bytes. Replies that fail the coordinator's checks are dropped and
// their work re-sent, never decoded with aborts.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/remote_pool.h"
#include "core/distributed/fusion_coordinator.h"
#include "hsi/image_cube.h"
#include "runtime/metrics.h"

namespace rif::service {

struct RemoteExecParams {
  const hsi::ImageCube* cube = nullptr;
  int total_tiles = 1;
  double screening_threshold = 0.05;
  int output_components = 3;
  std::int64_t job_id = 0;
  /// Per-JOB wall deadline: give up (caller falls back to the host
  /// engine) this long after the job starts, whatever else is happening.
  double deadline_seconds = 300.0;
  /// Per-item clock: an assigned tile or outstanding covariance shard
  /// unanswered this long is re-sent to another live worker. Grows by
  /// `resend_backoff` per attempt. <= 0 disables per-item deadlines
  /// (the job deadline still applies).
  double shard_deadline_seconds = 10.0;
  /// Re-send budget per item; exceeding it fails the job to host fallback.
  int resend_limit = 3;
  double resend_backoff = 2.0;
  /// When set, resend/giveup counters are published here
  /// (remote.tile_resends / remote.shard_resends / remote.deadline_giveups).
  runtime::MetricsRegistry* metrics = nullptr;
};

/// The job's outcome (composite, eigenvalues, counts) plus what the socket
/// plane did to get it.
struct RemoteExecResult : core::JobOutcome {
  int shards = 0;             ///< fixed covariance shard count used
  int tiles_requeued = 0;     ///< tiles reassigned after a disconnect
  int worker_disconnects = 0;
  int tiles_resent = 0;       ///< tiles re-sent after a per-item deadline
  int shards_resent = 0;      ///< cov shards re-sent after a deadline
  int deadline_giveups = 0;   ///< items whose resend budget ran out
};

/// Run one job over `workers` (pool indices). The shard count is fixed to
/// the number of live workers at job start, so the composite matches a sim
/// run with that worker count even if some workers die mid-job.
RemoteExecResult execute_remote_job(cluster::RemoteWorkerPool& pool,
                                    const std::vector<int>& workers,
                                    const RemoteExecParams& params);

}  // namespace rif::service
