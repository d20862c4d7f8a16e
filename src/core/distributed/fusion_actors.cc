#include "core/distributed/fusion_actors.h"

#include <algorithm>
#include <cmath>

#include "core/distributed/shard_ops.h"
#include "support/check.h"
#include "support/log.h"

namespace rif::core {

namespace {
constexpr std::uint64_t kSmallMsgBytes = 32;
}

// ---------------------------------------------------------------------------
// ManagerActor
// ---------------------------------------------------------------------------

ManagerActor::ManagerActor(FusionParams params, const hsi::ImageCube* cube,
                           JobOutcome& outcome,
                           std::function<void()> on_complete)
    : params_(std::move(params)),
      outcome_(outcome),
      on_complete_(std::move(on_complete)),
      model_(params_.cost_model()),
      coord_(params_.shape, full() ? cube : nullptr, params_.total_tiles,
             params_.screening_threshold, params_.output_components,
             params_.jacobi, outcome) {
  RIF_CHECK_MSG(!full() || cube != nullptr, "Full mode requires a cube");
  RIF_CHECK(static_cast<int>(params_.worker_tids.size()) == params_.workers);
}

void ManagerActor::on_message(scp::ActorContext& ctx, scp::ThreadId from,
                              const scp::Message& msg) {
  switch (msg.type) {
    case kRequestWork:
      on_request_work(ctx, from);
      break;
    case kScreenResult:
      on_screen_result(ctx, msg);
      break;
    case kCovSum:
      on_cov_sum(ctx, msg);
      break;
    case kColorTile:
      on_color_tile(ctx, msg);
      break;
    default:
      RIF_CHECK_MSG(false, "manager: unexpected message type");
  }
}

void ManagerActor::on_request_work(scp::ActorContext& ctx,
                                   scp::ThreadId from) {
  if (next_tile_ >= coord_.tile_count()) {
    ctx.send(from, scp::Message{kNoMoreTiles, {}, kSmallMsgBytes});
    return;
  }
  ++outcome_.tiles_distributed;
  const TileAssignMsg assign = coord_.assign(next_tile_++);
  ctx.send(from, assign.encode(model_.tile_bytes(assign.tile.pixels())));
}

void ManagerActor::on_screen_result(scp::ActorContext& ctx,
                                    const scp::Message& msg) {
  ScreenResultMsg result = ScreenResultMsg::decode(msg);
  double merge_charge = 0.0;
  bool screening_done = false;
  if (full()) {
    const std::uint64_t before = outcome_.merge_comparisons;
    const auto intake = coord_.accept_screen(std::move(result));
    RIF_CHECK_MSG(intake != FusionCoordinator::Intake::kRefused,
                  "manager: refused screen result");
    merge_charge =
        static_cast<double>(outcome_.merge_comparisons - before) *
        model_.flops_per_comparison();
    screening_done = coord_.screening_done();
  } else {
    outcome_.screen_comparisons += result.comparisons;
    pending_counts_.emplace(result.tile.index, result.unique_count);
    // Saturating growth of the merged set, in tile order; the remainder
    // are duplicates.
    for (auto it = pending_counts_.find(merged_tiles_);
         it != pending_counts_.end();
         it = pending_counts_.find(merged_tiles_)) {
      const double returned = static_cast<double>(it->second);
      const double room =
          std::max(0.0, 1.0 - model_unique_count_ /
                                  model_.params().global_unique_size);
      model_unique_count_ += returned * room;
      merge_charge += model_.merge_flops(returned);
      pending_counts_.erase(it);
      ++merged_tiles_;
    }
    screening_done = merged_tiles_ == coord_.tile_count();
  }
  ctx.compute(merge_charge, [this, &ctx, screening_done] {
    if (screening_done) start_covariance_phase(ctx);
  });
}

void ManagerActor::start_covariance_phase(scp::ActorContext& ctx) {
  // Step 3: the mean vector, charged at the manager; then step 4: shard the
  // unique set across the workers, shard w to worker w.
  ctx.compute(model_.mean_flops(), [this, &ctx] {
    std::vector<CovShardMsg> shards;
    if (full()) {
      shards = coord_.covariance_shards(params_.workers);
    } else {
      const auto modelled = static_cast<std::int64_t>(model_unique_count_);
      outcome_.unique_set_size = static_cast<std::size_t>(modelled);
      shards = FusionCoordinator::size_shards(modelled, params_.workers);
    }
    RIF_LOG_DEBUG("fusion", "screening done, unique set K="
                                << outcome_.unique_set_size);
    for (int w = 0; w < params_.workers; ++w) {
      const CovShardMsg& shard = shards[w];
      const std::uint64_t declared =
          model_.unique_vectors_bytes(static_cast<double>(shard.shard_count)) +
          params_.shape.bands * 8;
      ctx.send(params_.worker_tids[w], shard.encode(declared));
    }
  });
}

void ManagerActor::on_cov_sum(scp::ActorContext& ctx,
                              const scp::Message& msg) {
  if (full()) {
    const bool stored = coord_.accept_cov_sum(CovSumMsg::decode(msg));
    RIF_CHECK_MSG(stored, "manager: refused covariance sum");
  }
  if (++cov_received_ < params_.workers) return;

  // Steps 5-6: average (charge) then eigen-decompose (charge + compute).
  const double charge =
      model_.cov_average_flops(params_.workers) + model_.eigen_flops();
  ctx.compute(charge, [this, &ctx] { broadcast_transform(ctx); });
}

void ManagerActor::broadcast_transform(scp::ActorContext& ctx) {
  TransformMsg tm;
  if (full()) {
    tm = coord_.transform();
  } else {
    // A well-formed null transform: CostOnly colours nothing.
    tm.components = params_.output_components;
    tm.bands = params_.shape.bands;
    tm.matrix.assign(static_cast<std::size_t>(tm.components) * tm.bands, 0.0);
    tm.mean.assign(params_.shape.bands, 0.0);
    tm.scale_mean.assign(3, 0.0);
    tm.scale_gain.assign(3, 1.0);
  }
  for (const auto w : params_.worker_tids) {
    ctx.send(w, tm.encode(model_.transform_bytes()));
  }
}

void ManagerActor::on_color_tile(scp::ActorContext& ctx,
                                 const scp::Message& msg) {
  const ColorTileMsg color = ColorTileMsg::decode(msg);
  if (full()) {
    const bool placed = coord_.accept_color(color);
    RIF_CHECK_MSG(placed, "manager: refused colour tile");
  } else {
    ++outcome_.tiles_colored;
  }
  if (outcome_.tiles_colored == coord_.tile_count()) {
    outcome_.completed = true;
    outcome_.completion_time = ctx.now();
    RIF_LOG_INFO("fusion", "job complete at t=" << to_seconds(ctx.now())
                                                << "s");
    ctx.finish();
    if (on_complete_) {
      // Service mode: the shared runtime outlives the job. The service's
      // completion handler retires the job's (now quiescent) actors.
      on_complete_();
    } else {
      ctx.shutdown_runtime();
    }
  }
}

// ---------------------------------------------------------------------------
// WorkerActor
// ---------------------------------------------------------------------------

WorkerActor::WorkerActor(FusionParams params)
    : params_(std::move(params)), model_(params_.cost_model()) {}

void WorkerActor::on_start(scp::ActorContext& ctx) {
  ctx.send(params_.manager_tid,
           scp::Message{kRequestWork, {}, kSmallMsgBytes});
}

void WorkerActor::on_message(scp::ActorContext& ctx, scp::ThreadId /*from*/,
                             const scp::Message& msg) {
  switch (msg.type) {
    case kTileAssign:
      on_tile(ctx, msg);
      break;
    case kNoMoreTiles:
      break;  // idle until the covariance phase
    case kCovShard:
      on_cov_shard(ctx, msg);
      break;
    case kTransform:
      on_transform(ctx, msg);
      break;
    default:
      RIF_CHECK_MSG(false, "worker: unexpected message type");
  }
}

void WorkerActor::on_tile(scp::ActorContext& ctx, const scp::Message& msg) {
  TileAssignMsg assign = TileAssignMsg::decode(msg);
  const std::int64_t pixels = assign.tile.pixels();

  // Overlap: request the next sub-problem before computing this one
  // (paper §3: "a worker overlaps the request for its next sub-problem
  // with the calculation associated with the current sub-problem").
  ctx.send(params_.manager_tid,
           scp::Message{kRequestWork, {}, kSmallMsgBytes});

  tiles_.push_back(StoredTile{assign.tile, std::move(assign.data)});
  const StoredTile& stored = tiles_.back();

  if (params_.mode == ExecutionMode::kFull) {
    // Step 1 for real: build the per-tile unique set (shared shard kernel).
    ScreenResultMsg result = screen_shard(stored.tile, stored.data.data(),
                                          params_.screening_threshold);
    const double flops = static_cast<double>(result.comparisons) *
                         model_.flops_per_comparison();
    const std::uint64_t declared = model_.unique_vectors_bytes(
        static_cast<double>(result.unique_count));
    ctx.compute(flops, [&ctx, this, result = std::move(result), declared] {
      ctx.send(params_.manager_tid, result.encode(declared));
    });
  } else {
    ScreenResultMsg result;
    result.tile = stored.tile;
    result.unique_count =
        static_cast<std::uint64_t>(model_.tile_unique_size(pixels));
    result.comparisons = static_cast<std::uint64_t>(
        model_.screen_flops(pixels) / model_.flops_per_comparison());
    const std::uint64_t declared = model_.unique_vectors_bytes(
        static_cast<double>(result.unique_count));
    ctx.compute(model_.screen_flops(pixels),
                [&ctx, this, result = std::move(result), declared] {
                  ctx.send(params_.manager_tid, result.encode(declared));
                });
  }
}

void WorkerActor::on_cov_shard(scp::ActorContext& ctx,
                               const scp::Message& msg) {
  CovShardMsg shard = CovShardMsg::decode(msg);
  const double flops =
      model_.cov_flops(static_cast<std::int64_t>(shard.shard_count));

  CovSumMsg sum;
  if (params_.mode == ExecutionMode::kFull) {
    sum = cov_shard_sum(shard, params_.shape.bands);
  } else {
    sum.shard_index = shard.shard_index;
  }
  ctx.compute(flops, [&ctx, this, sum = std::move(sum)] {
    ctx.send(params_.manager_tid, sum.encode(model_.cov_sum_bytes()));
  });
}

void WorkerActor::on_transform(scp::ActorContext& ctx,
                               const scp::Message& msg) {
  auto tm = std::make_shared<TransformMsg>(TransformMsg::decode(msg));
  transform_next_tile(ctx, std::move(tm), 0);
}

void WorkerActor::transform_next_tile(scp::ActorContext& ctx,
                                      std::shared_ptr<TransformMsg> tm,
                                      std::size_t i) {
  if (i >= tiles_.size()) return;
  const StoredTile& stored = tiles_[i];
  const std::int64_t pixels = stored.tile.pixels();
  const double flops =
      model_.transform_flops(pixels) + model_.colormap_flops(pixels);

  ctx.compute(flops, [&ctx, this, tm = std::move(tm), i] {
    const StoredTile& t = tiles_[i];
    const std::int64_t px_count = t.tile.pixels();
    ColorTileMsg color;
    if (params_.mode == ExecutionMode::kFull) {
      // Steps 7-8 for real on this tile (shared shard kernel).
      color = color_shard(t.tile, t.data.data(), *tm);
    } else {
      color.tile = t.tile;
    }
    ctx.send(params_.manager_tid,
             color.encode(model_.color_tile_bytes(px_count)));
    transform_next_tile(ctx, std::move(tm), i + 1);
  });
}

std::vector<std::uint8_t> WorkerActor::snapshot_state() const {
  Writer w;
  w.put<std::uint64_t>(tiles_.size());
  for (const auto& t : tiles_) {
    w.put(t.tile);
    w.put_vector(t.data);
  }
  return std::move(w).take();
}

void WorkerActor::restore_state(const std::vector<std::uint8_t>& state) {
  Reader r(state);
  const auto n = r.get<std::uint64_t>();
  tiles_.clear();
  tiles_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    StoredTile t;
    t.tile = r.get<WireTile>();
    t.data = r.get_vector<float>();
    tiles_.push_back(std::move(t));
  }
}

std::uint64_t WorkerActor::state_bytes() const {
  std::uint64_t bytes = 1024;
  for (const auto& t : tiles_) bytes += model_.tile_bytes(t.tile.pixels());
  return bytes;
}

}  // namespace rif::core
