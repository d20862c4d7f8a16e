// Per-layer probes of the traced run: timed calls into each module's
// public functions on the run's own inputs, plus the counts those calls
// return. Every call is recorded as a span in the run's SpanLog.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "cluster/remote_pool.h"
#include "core/parallel/thread_pool.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

using LayerSample = std::map<std::string, double>;

/// One pass of every layer probe. Needs the scene in memory and the cube
/// file on disk. Sets `failure` when a probe's own output check fails.
LayerSample probe_layers(const Inputs& in, rif::core::ThreadPool& pool,
                         SpanLog& log, int request, std::string* failure);

/// Computed operation and byte counts per call of the three kernels the
/// engines spend their time in (screen, moment, project).
LayerSample kernel_costs();

/// The workload's engine called directly, without the service around it:
/// fuse_parallel_fused, fuse_streaming, or execute_remote_job over a
/// worker pool attached once up front.
class BareEngine {
 public:
  BareEngine(const Inputs& in, rif::core::ThreadPool& pool);
  ~BareEngine();
  BareEngine(const BareEngine&) = delete;
  BareEngine& operator=(const BareEngine&) = delete;

  /// One call; returns its wall ms. Sets `failure` when the composite
  /// differs from the run's reference.
  double run(SpanLog* log, int request, std::string* failure);

 private:
  const Inputs& in_;
  rif::core::ThreadPool& pool_;
  std::unique_ptr<rif::cluster::RemoteWorkerPool> remote_;
  std::int64_t next_job_ = 1;
};

}  // namespace perfbench
