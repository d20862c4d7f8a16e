// Edge-case and robustness tests across modules: degenerate fusion-job
// configurations, non-finite pixels, network partition healing, trace
// invariants.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <memory>

#include "cluster/failure_injector.h"
#include "cluster/remote_pool.h"
#include "core/distributed/fusion_job.h"
#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "hsi/cube_io.h"
#include "hsi/scene.h"
#include "net/network.h"
#include "scp/runtime.h"
#include "service/remote_exec.h"
#include "sim/simulation.h"
#include "stream/streaming_engine.h"
#include "support/serialize.h"

namespace rif {
namespace {

// --- Degenerate fusion-job configurations ------------------------------------

core::FusionJobConfig small_cost_only(int workers, int tiles_per_worker) {
  core::FusionJobConfig config;
  config.mode = core::ExecutionMode::kCostOnly;
  config.shape = {64, 8, 12};  // only 8 rows
  config.workers = workers;
  config.tiles_per_worker = tiles_per_worker;
  config.deadline = from_seconds(10000);
  return config;
}

TEST(FusionEdgeTest, MoreWorkersThanRows) {
  // 12 workers want 24 tiles but only 8 rows exist: some workers never get
  // a tile, yet the job must complete.
  const auto r = run_fusion_job(small_cost_only(12, 2));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.outcome.tiles_distributed, 8);
  EXPECT_EQ(r.outcome.tiles_colored, 8);
}

TEST(FusionEdgeTest, SingleWorkerSingleTile) {
  const auto r = run_fusion_job(small_cost_only(1, 1));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.outcome.tiles_distributed, 1);
}

TEST(FusionEdgeTest, IdleWorkerWithReplicationStillCompletes) {
  auto config = small_cost_only(12, 1);
  config.resilient = true;
  config.replication = 2;
  const auto r = run_fusion_job(config);
  ASSERT_TRUE(r.completed);
}

TEST(FusionEdgeTest, FullModeTinyScene) {
  hsi::SceneConfig sc;
  sc.width = 16;
  sc.height = 6;
  sc.bands = 8;
  sc.seed = 2;
  const auto scene = hsi::generate_scene(sc);
  core::FusionJobConfig config;
  config.mode = core::ExecutionMode::kFull;
  config.cube = &scene.cube;
  config.shape = {16, 6, 8};
  config.workers = 4;
  config.tiles_per_worker = 3;  // 12 tiles wanted, 6 rows available
  config.deadline = from_seconds(10000);
  const auto r = run_fusion_job(config);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.outcome.composite.data.size(),
            static_cast<std::size_t>(16 * 6 * 3));
}

TEST(FusionEdgeTest, ManyComponentsRequested) {
  hsi::SceneConfig sc;
  sc.width = 24;
  sc.height = 24;
  sc.bands = 10;
  const auto scene = hsi::generate_scene(sc);
  core::ParallelPctConfig pcfg;
  pcfg.pct.output_components = 10;  // == bands
  const auto result = core::fuse_parallel(scene.cube, pcfg);
  EXPECT_EQ(result.component_planes.size(), 10u);
}

// --- Non-finite pixels -------------------------------------------------------

/// Results of one scene through every host engine and a remote job.
struct EngineRuns {
  std::vector<core::PctResult> host;  ///< fuse, parallel, streamed
  service::RemoteExecResult remote;
};

EngineRuns run_every_engine(const hsi::Scene& scene) {
  constexpr int kTiles = 6;
  constexpr int kWorkers = 2;
  EngineRuns runs;
  runs.host.push_back(core::fuse(scene.cube, core::PctConfig{}));
  core::ParallelPctConfig pcfg;
  pcfg.tiles = kTiles;
  pcfg.cov_shards = kWorkers;  // the remote job's shard count
  core::ThreadPool pool(kWorkers);
  runs.host.push_back(core::fuse_parallel(scene.cube, pool, pcfg));

  const std::string path =
      (std::filesystem::temp_directory_path() / "rif_nonfinite.dat").string();
  EXPECT_TRUE(hsi::save_cube(path, scene.cube, hsi::Interleave::kBip,
                             scene.wavelengths));
  stream::StreamingConfig scfg;
  scfg.chunk_lines = 16;
  auto streamed = stream::fuse_streaming(path, pool, scfg);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".hdr");
  EXPECT_TRUE(streamed.has_value());
  if (streamed) runs.host.push_back(std::move(*streamed));

  cluster::RemoteWorkerPool workers;
  workers.start(/*first_node_id=*/100);
  for (int i = 0; i < kWorkers; ++i) workers.spawn_local_worker();
  EXPECT_EQ(workers.wait_for_workers(kWorkers, 10.0), kWorkers);
  service::RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = kTiles;
  params.job_id = 1;
  runs.remote = service::execute_remote_job(workers, {0, 1}, params);
  workers.stop();
  return runs;
}

TEST(NonFinitePixelTest, NaNAndInfPixelsChangeOnlyTheirOwnBytes) {
  hsi::SceneConfig sc;
  sc.width = 48;
  sc.height = 48;
  sc.bands = 32;
  sc.seed = 5;
  hsi::Scene clean = hsi::generate_scene(sc);
  // Two pixels that copy their left neighbour: a copy is at angle 0 to it,
  // so it never joins a unique set and the clean scene's statistics do not
  // depend on it. The dirty scene spoils one band of each.
  const int xs[] = {10, 30};
  const int ys[] = {5, 40};
  for (int k = 0; k < 2; ++k) {
    const auto left = clean.cube.pixel(xs[k] - 1, ys[k]);
    const auto px = clean.cube.pixel(xs[k], ys[k]);
    std::copy(left.begin(), left.end(), px.begin());
  }
  hsi::Scene dirty = clean;
  dirty.cube.pixel(xs[0], ys[0])[3] = std::numeric_limits<float>::quiet_NaN();
  dirty.cube.pixel(xs[1], ys[1])[7] = std::numeric_limits<float>::infinity();

  const EngineRuns want = run_every_engine(clean);
  const EngineRuns got = run_every_engine(dirty);
  ASSERT_EQ(got.host.size(), 3u);
  ASSERT_EQ(want.host.size(), 3u);
  ASSERT_TRUE(want.remote.completed);
  ASSERT_TRUE(got.remote.completed);
  // The remote job merged every tile: no tile was refused into a resend.
  EXPECT_EQ(got.remote.tiles_resent, 0);

  const auto expect_same_but_two = [&](const hsi::RgbImage& a,
                                       const hsi::RgbImage& b,
                                       const char* engine) {
    ASSERT_EQ(a.data.size(), b.data.size()) << engine;
    for (std::size_t p = 0; p < a.data.size() / 3; ++p) {
      const int x = static_cast<int>(p) % sc.width;
      const int y = static_cast<int>(p) / sc.width;
      const bool spoilt =
          (x == xs[0] && y == ys[0]) || (x == xs[1] && y == ys[1]);
      for (int c = 0; c < 3; ++c) {
        if (spoilt) {
          EXPECT_EQ(b.data[p * 3 + c], 0) << engine << " pixel " << p;
        } else {
          EXPECT_EQ(a.data[p * 3 + c], b.data[p * 3 + c])
              << engine << " pixel " << p;
        }
      }
    }
  };
  const char* names[] = {"fuse", "fuse_parallel", "fuse_streaming"};
  for (std::size_t e = 0; e < got.host.size(); ++e) {
    EXPECT_EQ(got.host[e].unique_set_size, want.host[e].unique_set_size)
        << names[e];
    EXPECT_EQ(got.host[e].eigenvalues, want.host[e].eigenvalues) << names[e];
    expect_same_but_two(want.host[e].composite, got.host[e].composite,
                        names[e]);
  }
  EXPECT_EQ(got.remote.unique_set_size, want.remote.unique_set_size);
  EXPECT_EQ(got.remote.eigenvalues, want.remote.eigenvalues);
  expect_same_but_two(want.remote.composite, got.remote.composite, "remote");
  // Host and remote agree byte for byte on the dirty scene.
  EXPECT_EQ(got.remote.composite.data, got.host[1].composite.data);
  EXPECT_EQ(got.remote.eigenvalues, got.host[1].eigenvalues);
  EXPECT_EQ(got.remote.unique_set_size, got.host[1].unique_set_size);
  EXPECT_EQ(got.remote.screen_comparisons, got.host[1].screen_comparisons);
  EXPECT_EQ(got.remote.merge_comparisons, got.host[1].merge_comparisons);
}

// --- Partition healing ----------------------------------------------------------

constexpr std::uint32_t kAdd = 1;
constexpr std::uint32_t kReport = 2;
constexpr std::uint32_t kSum = 3;

scp::Message int_message(std::uint32_t type, std::int64_t value) {
  Writer w;
  w.put<std::int64_t>(value);
  return scp::Message{type, std::move(w).take(), 0};
}

class Accumulator final : public scp::Actor {
 public:
  explicit Accumulator(double flops_per_message = 0.0)
      : flops_(flops_per_message) {}
  void on_message(scp::ActorContext& ctx, scp::ThreadId from,
                  const scp::Message& msg) override {
    if (msg.type == kAdd) {
      Reader r(msg.payload);
      const std::int64_t v = r.get<std::int64_t>();
      if (flops_ > 0.0) {
        ctx.compute(flops_, [this, v] { sum_ += v; });
      } else {
        sum_ += v;
      }
    } else if (msg.type == kReport) {
      ctx.send(from, int_message(kSum, sum_));
    }
  }
  std::vector<std::uint8_t> snapshot_state() const override {
    Writer w;
    w.put<std::int64_t>(sum_);
    return std::move(w).take();
  }
  void restore_state(const std::vector<std::uint8_t>& s) override {
    Reader r(s);
    sum_ = r.get<std::int64_t>();
  }

 private:
  double flops_;
  std::int64_t sum_ = 0;
};

class Streamer final : public scp::Actor {
 public:
  Streamer(scp::ThreadId target, int count, std::int64_t* out)
      : target_(target), count_(count), out_(out) {}
  void on_start(scp::ActorContext& ctx) override {
    for (int i = 1; i <= count_; ++i) ctx.send(target_, int_message(kAdd, i));
    ctx.send(target_, int_message(kReport, 0));
  }
  void on_message(scp::ActorContext& ctx, scp::ThreadId /*from*/,
                  const scp::Message& msg) override {
    if (msg.type == kSum) {
      Reader r(msg.payload);
      *out_ = r.get<std::int64_t>();
      ctx.finish();
      ctx.shutdown_runtime();
    }
  }

 private:
  scp::ThreadId target_;
  int count_;
  std::int64_t* out_;
};

TEST(PartitionHealTest, MessagesRecoveredAfterPartitionHeals) {
  sim::Simulation sim;
  cluster::Cluster cluster(sim);
  cluster::NodeConfig nc;
  nc.flops_per_second = 1e8;
  cluster.add_nodes(3, nc);
  net::LanNetwork net(cluster);
  scp::RuntimeConfig rc;
  rc.resilient = true;
  rc.heartbeat_period = from_millis(20);
  rc.failure_timeout = from_millis(5000);  // partition != death here
  rc.retransmit_timeout = from_millis(60);
  scp::Runtime runtime(cluster, net, rc);

  std::int64_t result = -1;
  runtime.spawn("streamer", [&] {
    return std::make_unique<Streamer>(1, 25, &result);
  }, 1, {0});
  runtime.spawn("acc", [] { return std::make_unique<Accumulator>(); }, 2,
                {1, 2});

  // Cut node 0 <-> node 1 for a while: copies to slot 0 are lost, slot 1
  // keeps working; after healing, retransmission catches slot 0 up.
  net.set_partitioned(0, 1, true);
  sim.schedule_at(from_millis(700), [&] { net.set_partitioned(0, 1, false); });

  runtime.start();
  // The reachable replica answers immediately; the application finishes
  // long before the partition heals.
  ASSERT_TRUE(runtime.run(from_seconds(120)));
  EXPECT_EQ(result, 325);
  EXPECT_EQ(runtime.stats().failures_detected, 0u);  // nobody died

  // Keep the protocol machinery running past the heal: retransmission must
  // deliver the cut replica's entire backlog.
  sim.run_until(from_seconds(5));
  EXPECT_GT(runtime.stats().retransmits, 0u);
  EXPECT_GT(runtime.stats().duplicates_dropped + runtime.stats().acks, 25u);
}

/// Emits kAdd messages spaced by a compute delay, so traffic is in flight
/// throughout the run (needed to exercise in-flight drops on a crash).
class PacedStreamer final : public scp::Actor {
 public:
  PacedStreamer(scp::ThreadId target, int count, std::int64_t* out)
      : target_(target), count_(count), out_(out) {}
  void on_start(scp::ActorContext& ctx) override { send_next(ctx, 1); }
  void on_message(scp::ActorContext& ctx, scp::ThreadId /*from*/,
                  const scp::Message& msg) override {
    if (msg.type == kSum) {
      Reader r(msg.payload);
      *out_ = r.get<std::int64_t>();
      ctx.finish();
      ctx.shutdown_runtime();
    }
  }

 private:
  void send_next(scp::ActorContext& ctx, int i) {
    if (i > count_) {
      ctx.send(target_, int_message(kReport, 0));
      return;
    }
    ctx.send(target_, int_message(kAdd, i));
    ctx.compute(1e6, [this, &ctx, i] { send_next(ctx, i + 1); });
  }

  scp::ThreadId target_;
  int count_;
  std::int64_t* out_;
};

// --- Trace invariants -------------------------------------------------------------

TEST(TraceInvariantTest, NoDeliveryToDeadNode) {
  core::FusionJobConfig config;
  config.mode = core::ExecutionMode::kCostOnly;
  config.shape = {64, 32, 12};
  config.workers = 3;
  config.resilient = true;
  config.replication = 2;
  config.runtime.heartbeat_period = from_millis(100);
  config.runtime.failure_timeout = from_millis(400);
  config.failures = {{from_seconds(2), 2, -1}};
  config.deadline = from_seconds(50000);
  // Run manually to get at the trace.
  sim::Simulation sim;
  cluster::Cluster cluster(sim);
  cluster.trace().set_enabled(true);
  cluster.add_nodes(4, config.node);
  net::LanNetwork net(cluster, config.lan);
  scp::RuntimeConfig rc = config.runtime;
  rc.resilient = true;
  scp::Runtime runtime(cluster, net, rc);

  std::int64_t result = -1;
  runtime.spawn("streamer", [&] {
    // Paced: ~50 ms between sends, so copies are in flight when the node
    // dies at t=300 ms.
    return std::make_unique<PacedStreamer>(1, 60, &result);
  }, 1, {0});
  runtime.spawn("acc", [] { return std::make_unique<Accumulator>(); }, 2,
                {1, 2});
  cluster::FailureInjector injector(cluster);
  injector.schedule_crash(from_millis(300), 2);
  runtime.start();
  ASSERT_TRUE(runtime.run(from_seconds(120)));
  EXPECT_EQ(result, 1830);

  // Invariant: after a node's failure time, no delivery lands on it.
  SimTime failed_at = -1;
  for (const auto& rec : cluster.trace().records()) {
    if (rec.kind == sim::TraceKind::kNodeFailed && rec.a == 2) {
      failed_at = rec.time;
    }
    if (rec.kind == sim::TraceKind::kMessageDelivered && rec.b == 2 &&
        failed_at >= 0) {
      FAIL() << "delivery to dead node 2 at t=" << to_seconds(rec.time);
    }
  }
  ASSERT_GE(failed_at, 0);
  EXPECT_GT(cluster.trace().count(sim::TraceKind::kMessageDropped), 0u);
  EXPECT_EQ(cluster.trace().count(sim::TraceKind::kReplicaSpawned), 1u);
}

TEST(TraceInvariantTest, ComputeAccountingConsistent) {
  core::FusionJobConfig config;
  config.mode = core::ExecutionMode::kCostOnly;
  config.shape = {64, 64, 12};
  config.workers = 2;
  config.deadline = from_seconds(50000);
  const auto r = run_fusion_job(config);
  ASSERT_TRUE(r.completed);
  // Flops charged must at least cover the modelled screening work.
  const core::CostModel model(config.cost, 12, 3);
  double screen_total = 0.0;
  const auto tiles = hsi::partition_rows(config.shape, 4);
  for (const auto& t : tiles) screen_total += model.screen_flops(t.pixels());
  EXPECT_GE(r.total_flops_charged, screen_total);
}

}  // namespace
}  // namespace rif
