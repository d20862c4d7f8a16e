// Manager and worker actors of the distributed spectral-screening PCT on
// the simulated cluster.
//
// The manager (logical thread 0) runs the paper's manager/worker
// decomposition: it hands out sub-cube tiles on request (workers prefetch —
// they request the next tile *before* screening the current one, the
// paper's communication/computation overlap), merges the returned per-tile
// unique sets in tile order (step 2), computes the mean (step 3), shards the
// unique set for the concurrent covariance sums (step 4), averages and
// eigen-decomposes (steps 5-6), broadcasts the transform, and assembles the
// colour tiles (steps 7-8 results). In Full mode every one of those steps is
// a call into core::FusionCoordinator — the same object the socket
// coordinator (service/remote_exec.h) drives — and the actor adds only the
// virtual-time cost charges. CostOnly mode keeps its own modelled merge.
//
// Merging strictly in tile-index order makes the distributed result a pure
// function of the tile decomposition — independent of worker count, message
// timing, replication level, and injected failures. The integration tests
// exploit this: a run with crashes and regeneration must produce the exact
// composite of an undisturbed run.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/distributed/fusion_coordinator.h"
#include "core/distributed/messages.h"
#include "hsi/image_cube.h"
#include "scp/actor.h"

namespace rif::core {

enum class ExecutionMode {
  kFull,     ///< real pixels, real arithmetic, real composite
  kCostOnly  ///< dimensions only; CPUs charged from the cost model
};

/// Parameters shared by the manager and all workers.
struct FusionParams {
  ExecutionMode mode = ExecutionMode::kCostOnly;
  hsi::CubeShape shape{320, 320, 105};
  int workers = 4;
  int total_tiles = 8;
  double screening_threshold = 0.05;
  int output_components = 3;
  CostModelParams cost;

  scp::ThreadId manager_tid = 0;
  /// Worker logical thread ids, in worker order (filled by the job runner).
  std::vector<scp::ThreadId> worker_tids;

  [[nodiscard]] CostModel cost_model() const {
    return {cost, shape.bands, output_components};
  }
};

class ManagerActor final : public scp::Actor {
 public:
  /// `cube` must outlive the run and is required in Full mode.
  ///
  /// When `on_complete` is set the manager runs in *service mode*: on the
  /// final colour tile it invokes the callback and the shared runtime keeps
  /// running other jobs — the caller is then responsible for tearing down
  /// the job's actors (see scp::Runtime::retire_job; until then the idle
  /// workers keep heartbeating). Without it (the paper's single-job world)
  /// it shuts the runtime down.
  ManagerActor(FusionParams params, const hsi::ImageCube* cube,
               JobOutcome& outcome, std::function<void()> on_complete = {});

  void on_message(scp::ActorContext& ctx, scp::ThreadId from,
                  const scp::Message& msg) override;

  // The manager represents the sensor and is not replicated in the paper;
  // snapshot support is intentionally minimal.
  std::uint64_t state_bytes() const override { return params_.shape.bytes(); }

 private:
  void on_request_work(scp::ActorContext& ctx, scp::ThreadId from);
  void on_screen_result(scp::ActorContext& ctx, const scp::Message& msg);
  void start_covariance_phase(scp::ActorContext& ctx);
  void on_cov_sum(scp::ActorContext& ctx, const scp::Message& msg);
  void broadcast_transform(scp::ActorContext& ctx);
  void on_color_tile(scp::ActorContext& ctx, const scp::Message& msg);

  [[nodiscard]] bool full() const {
    return params_.mode == ExecutionMode::kFull;
  }

  FusionParams params_;
  JobOutcome& outcome_;
  std::function<void()> on_complete_;
  CostModel model_;
  FusionCoordinator coord_;
  int next_tile_ = 0;

  // CostOnly step 2: modelled unique counts, merged in tile order.
  std::map<int, std::uint64_t> pending_counts_;
  int merged_tiles_ = 0;
  double model_unique_count_ = 0.0;

  int cov_received_ = 0;
};

class WorkerActor final : public scp::Actor {
 public:
  explicit WorkerActor(FusionParams params);

  void on_start(scp::ActorContext& ctx) override;
  void on_message(scp::ActorContext& ctx, scp::ThreadId from,
                  const scp::Message& msg) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(const std::vector<std::uint8_t>& state) override;
  std::uint64_t state_bytes() const override;

 private:
  struct StoredTile {
    WireTile tile;
    std::vector<float> data;  ///< empty in CostOnly mode
  };

  void on_tile(scp::ActorContext& ctx, const scp::Message& msg);
  void on_cov_shard(scp::ActorContext& ctx, const scp::Message& msg);
  void on_transform(scp::ActorContext& ctx, const scp::Message& msg);
  void transform_next_tile(scp::ActorContext& ctx,
                           std::shared_ptr<TransformMsg> tm, std::size_t i);

  FusionParams params_;
  CostModel model_;
  std::vector<StoredTile> tiles_;
};

}  // namespace rif::core
