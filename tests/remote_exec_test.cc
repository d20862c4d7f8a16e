// Real-transport execution vs the sim oracle: the same job, sharded across
// in-process workers speaking the socket protocol over socketpairs, must
// produce the exact bytes of the virtual-time run and of the shared-memory
// engine — including when a worker dies mid-job and its tiles re-queue.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "cluster/remote_pool.h"
#include "core/distributed/fusion_job.h"
#include "core/distributed/messages.h"
#include "core/distributed/shard_ops.h"
#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "hsi/scene.h"
#include "scp/wire.h"
#include "service/remote_exec.h"

namespace rif::service {
namespace {

hsi::Scene test_scene(int size = 32, int bands = 16, std::uint64_t seed = 77) {
  hsi::SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.bands = bands;
  cfg.seed = seed;
  return hsi::generate_scene(cfg);
}

core::PctResult reference_result(const hsi::Scene& scene, int shards,
                                 int tiles) {
  core::ParallelPctConfig pcfg;
  pcfg.tiles = tiles;
  pcfg.cov_shards = shards;
  return core::fuse_parallel(scene.cube, pcfg);
}

/// Every result field a remote job shares with the shared-memory engine,
/// compared exactly.
void expect_same_result(const RemoteExecResult& real,
                        const core::PctResult& ref) {
  EXPECT_EQ(real.composite.width, ref.composite.width);
  EXPECT_EQ(real.composite.height, ref.composite.height);
  EXPECT_EQ(real.composite.data, ref.composite.data);
  EXPECT_EQ(real.eigenvalues, ref.eigenvalues);
  EXPECT_EQ(real.unique_set_size, ref.unique_set_size);
  EXPECT_EQ(real.screen_comparisons, ref.screen_comparisons);
  EXPECT_EQ(real.merge_comparisons, ref.merge_comparisons);
}

TEST(RemoteExecTest, MatchesSimOracleAndSharedMemoryBitExact) {
  const auto scene = test_scene();
  const int workers = 3;
  const int total_tiles = 6;

  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  for (int i = 0; i < workers; ++i) pool.spawn_local_worker();
  ASSERT_EQ(pool.wait_for_workers(workers, 10.0), workers);

  RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = total_tiles;
  params.job_id = 1;
  const RemoteExecResult real =
      execute_remote_job(pool, {0, 1, 2}, params);
  ASSERT_TRUE(real.completed);
  EXPECT_EQ(real.worker_disconnects, 0);

  // Oracle 1: the shared-memory engine with the same tile/shard counts.
  EXPECT_EQ(real.shards, workers);
  expect_same_result(real, reference_result(scene, workers, total_tiles));

  // Oracle 2: the virtual-time transport running the same actor protocol.
  core::FusionJobConfig sim;
  sim.mode = core::ExecutionMode::kFull;
  sim.cube = &scene.cube;
  sim.shape = {scene.cube.width(), scene.cube.height(), scene.cube.bands()};
  sim.workers = workers;
  sim.tiles_per_worker = total_tiles / workers;
  sim.deadline = from_seconds(3000);
  const core::FusionReport simr = core::run_fusion_job(sim);
  ASSERT_TRUE(simr.completed);
  EXPECT_EQ(real.composite.data, simr.outcome.composite.data);
  EXPECT_EQ(real.eigenvalues, simr.outcome.eigenvalues);
  EXPECT_EQ(real.unique_set_size, simr.outcome.unique_set_size);
  EXPECT_EQ(real.screen_comparisons, simr.outcome.screen_comparisons);
  EXPECT_EQ(real.merge_comparisons, simr.outcome.merge_comparisons);

  pool.stop();
}

TEST(RemoteExecTest, TwoWorkersMatchTwoShardEngineFieldForField) {
  const auto scene = test_scene(40, 20, 5);
  const int total_tiles = 4;

  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  pool.spawn_local_worker();
  pool.spawn_local_worker();
  ASSERT_EQ(pool.wait_for_workers(2, 10.0), 2);

  RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = total_tiles;
  params.job_id = 1;
  const RemoteExecResult real = execute_remote_job(pool, {0, 1}, params);
  ASSERT_TRUE(real.completed);
  EXPECT_EQ(real.shards, 2);
  EXPECT_EQ(real.tiles_colored, total_tiles);
  expect_same_result(real, reference_result(scene, 2, total_tiles));

  pool.stop();
}

scp::WireEnvelope app_frame(std::uint64_t job_tag, std::uint32_t msg_type,
                            std::vector<std::uint8_t> payload = {}) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kApp;
  env.seq = job_tag;
  env.msg_type = msg_type;
  env.payload = std::move(payload);
  return env;
}

/// A worker that follows the protocol until it has screened `die_after`
/// tiles, then drops the connection without a goodbye — a process crash as
/// the coordinator sees it. With `hostile`, it first injects the frames a
/// buggy or malicious peer could produce: out-of-range tile indices, a
/// colour tile tagged with another job's id, and unsolicited CovSums. All
/// must be dropped without corrupting the job.
///
/// Tiles are pull-based, so on a loaded machine the other workers can drain
/// every tile before this thread is ever scheduled — and a crashy worker
/// that never held a tile has nothing to crash with. `pre_request_job_id`
/// sends a correctly-tagged kRequestWork right behind the hello, before the
/// job even starts, so a tile assignment is waiting for it at job start.
/// Running dry (kNoMoreTiles) is a crash trigger too, never a reason to
/// keep reading forever.
void crashy_worker(int fd, int die_after, int total_tiles = 0,
                   bool hostile = false, int pre_request_job_id = -1) {
  net::SocketClient client;
  client.adopt(fd);
  scp::WireEnvelope hello;
  hello.kind = scp::FrameKind::kHello;
  hello.payload = scp::HelloBody{}.encode();
  ASSERT_TRUE(client.send_frame(hello.encode()));
  if (pre_request_job_id >= 0) {
    ASSERT_TRUE(client.send_frame(
        app_frame(static_cast<std::uint64_t>(pre_request_job_id),
                  core::kRequestWork)
            .encode()));
  }

  scp::JobStartBody job;
  int screened = 0;
  std::vector<std::uint8_t> frame;
  while (client.read_frame(frame)) {
    const scp::WireEnvelope env = scp::WireEnvelope::decode(frame);
    if (env.kind == scp::FrameKind::kJobStart) {
      job = scp::JobStartBody::decode(env.payload);
      const auto tag = static_cast<std::uint64_t>(job.job_id);
      if (hostile) {
        // Screen result for a tile index far past the job's tile count.
        core::ScreenResultMsg oob;
        oob.tile = {999, 0, 1, job.width, job.bands};
        oob.vectors.assign(static_cast<std::size_t>(job.bands), 0.5f);
        oob.unique_count = 1;
        ASSERT_TRUE(client.send_frame(
            app_frame(tag, core::kScreenResult, oob.encode(0).payload)
                .encode()));
        // Colour tiles with out-of-range indices, correctly tagged.
        for (const int idx : {-3, 999}) {
          core::ColorTileMsg oob_color;
          oob_color.tile = {idx, 0, 1, job.width, job.bands};
          oob_color.rgb.assign(static_cast<std::size_t>(job.width) * 3, 0xAB);
          ASSERT_TRUE(client.send_frame(
              app_frame(tag, core::kColorTile, oob_color.encode(0).payload)
                  .encode()));
        }
        // A colour tile with plausible geometry for tile 0 but another
        // job's tag — garbage pixels that must never reach the composite.
        const auto tiles = hsi::partition_rows(
            {job.width, job.height, job.bands}, total_tiles);
        core::ColorTileMsg stale;
        stale.tile = core::WireTile::from(tiles[0]);
        stale.rgb.assign(static_cast<std::size_t>(tiles[0].pixels()) * 3,
                         0xAB);
        ASSERT_TRUE(client.send_frame(
            app_frame(tag + 1000, core::kColorTile, stale.encode(0).payload)
                .encode()));
        // Unsolicited covariance sums: one in range, one far out.
        for (const std::uint64_t s : {std::uint64_t{0}, std::uint64_t{999}}) {
          core::CovSumMsg bogus;
          bogus.shard_index = s;
          bogus.accumulator = {1, 2, 3};
          ASSERT_TRUE(client.send_frame(
              app_frame(tag, core::kCovSum, bogus.encode(0).payload)
                  .encode()));
        }
      }
      ASSERT_TRUE(
          client.send_frame(app_frame(tag, core::kRequestWork).encode()));
      continue;
    }
    if (env.kind != scp::FrameKind::kApp) continue;
    const auto tag = static_cast<std::uint64_t>(job.job_id);
    const scp::Message msg = env.to_message();
    if (msg.type == core::kNoMoreTiles) break;  // starved: crash empty-handed
    if (msg.type != core::kTileAssign) continue;
    const core::TileAssignMsg assign = core::TileAssignMsg::decode(msg);
    const core::ScreenResultMsg result = core::screen_shard(
        assign.tile, assign.data.data(), job.screening_threshold);
    ASSERT_TRUE(client.send_frame(
        app_frame(tag, core::kScreenResult, result.encode(0).payload)
            .encode()));
    if (++screened >= die_after) break;  // crash: no goodbye, no colour
    ASSERT_TRUE(
        client.send_frame(app_frame(tag, core::kRequestWork).encode()));
  }
  client.close();
}

TEST(RemoteExecTest, WorkerCrashMidJobRequeuesAndStillMatches) {
  const auto scene = test_scene();
  const int total_tiles = 6;

  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  pool.spawn_local_worker();
  pool.spawn_local_worker();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);
  std::thread crashy([fd = sv[1]] {
    crashy_worker(fd, /*die_after=*/1, /*total_tiles=*/0, /*hostile=*/false,
                  /*pre_request_job_id=*/2);
  });
  ASSERT_EQ(pool.wait_for_workers(3, 10.0), 3);

  RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = total_tiles;
  params.job_id = 2;
  const RemoteExecResult real =
      execute_remote_job(pool, {0, 1, 2}, params);
  ASSERT_TRUE(real.completed);
  EXPECT_EQ(real.worker_disconnects, 1);
  EXPECT_GE(real.tiles_requeued, 1);
  EXPECT_EQ(real.shards, 3);  // fixed at job start, despite the crash

  // The kill must not change a single byte: merge orders are keyed by
  // tile/shard index, not by which worker answered.
  expect_same_result(real, reference_result(scene, 3, total_tiles));

  pool.stop();  // closes every session, so a blocked worker always unblocks
  crashy.join();
}

TEST(RemoteExecTest, HostileAndStaleFramesAreDroppedNotTrusted) {
  const auto scene = test_scene();
  const int total_tiles = 6;

  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  pool.spawn_local_worker();
  pool.spawn_local_worker();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);
  std::thread hostile([fd = sv[1]] {
    crashy_worker(fd, /*die_after=*/1, /*total_tiles=*/6, /*hostile=*/true,
                  /*pre_request_job_id=*/7);
  });
  ASSERT_EQ(pool.wait_for_workers(3, 10.0), 3);

  RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = total_tiles;
  params.job_id = 7;
  const RemoteExecResult real =
      execute_remote_job(pool, {0, 1, 2}, params);
  ASSERT_TRUE(real.completed);

  // None of the injected frames may leave a trace: the composite must be
  // the exact bytes of the clean reference run.
  expect_same_result(real, reference_result(scene, 3, total_tiles));

  pool.stop();
  hostile.join();
}

TEST(RemoteExecTest, MalformedEnvelopeClosesSessionNotProcess) {
  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);

  net::SocketClient client;
  client.adopt(sv[1]);
  scp::WireEnvelope hello;
  hello.kind = scp::FrameKind::kHello;
  hello.payload = scp::HelloBody{}.encode();
  ASSERT_TRUE(client.send_frame(hello.encode()));
  ASSERT_EQ(pool.wait_for_workers(1, 10.0), 1);

  // Well-framed but not a decodable envelope: the pool must close this
  // session (not abort the poll thread, which serves every worker).
  ASSERT_TRUE(client.send_frame(std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE}));
  const auto ev = pool.poll_event(10.0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, cluster::RemoteWorkerPool::Event::Kind::kClosed);
  EXPECT_EQ(ev->worker, 0);
  EXPECT_FALSE(pool.alive(0));
  client.close();
  pool.stop();
}

TEST(RemoteExecTest, AllWorkersDeadReportsFailureForFallback) {
  const auto scene = test_scene(16, 8);
  cluster::RemoteWorkerPool pool;
  pool.start(/*first_node_id=*/100);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  pool.adopt_fd(sv[0]);
  std::thread crashy([fd = sv[1]] { crashy_worker(fd, /*die_after=*/1); });
  ASSERT_EQ(pool.wait_for_workers(1, 10.0), 1);

  RemoteExecParams params;
  params.cube = &scene.cube;
  params.total_tiles = 4;
  params.deadline_seconds = 5.0;
  const RemoteExecResult real = execute_remote_job(pool, {0}, params);
  EXPECT_FALSE(real.completed);  // caller falls back to the host engine
  pool.stop();
  crashy.join();
}

}  // namespace
}  // namespace rif::service
