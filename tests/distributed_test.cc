#include <gtest/gtest.h>

#include <limits>

#include "core/distributed/fusion_coordinator.h"
#include "core/distributed/fusion_job.h"
#include "core/distributed/shard_ops.h"
#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "hsi/scene.h"

namespace rif::core {
namespace {

hsi::Scene test_scene(int size = 32, int bands = 16, std::uint64_t seed = 77) {
  hsi::SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.bands = bands;
  cfg.seed = seed;
  return hsi::generate_scene(cfg);
}

/// Full-mode config over a small real scene with slow nodes so that the
/// job spans virtual seconds (room for mid-run failure injection).
FusionJobConfig full_config(const hsi::Scene& scene, int workers, int tiles) {
  FusionJobConfig config;
  config.mode = ExecutionMode::kFull;
  config.cube = &scene.cube;
  config.shape = {scene.cube.width(), scene.cube.height(),
                  scene.cube.bands()};
  config.workers = workers;
  config.tiles_per_worker = tiles;
  // Slow CPUs stretch the job to ~3 virtual seconds so that the failure
  // scripts below land mid-computation.
  config.node.flops_per_second = 2e5;
  config.runtime.heartbeat_period = from_millis(20);
  config.runtime.failure_timeout = from_millis(80);
  config.runtime.retransmit_timeout = from_millis(60);
  config.runtime.state_request_timeout = from_millis(150);
  config.deadline = from_seconds(3000);
  return config;
}

FusionJobConfig cost_only_config(int workers, int tiles_per_worker) {
  FusionJobConfig config;
  config.mode = ExecutionMode::kCostOnly;
  config.shape = {320, 320, 105};
  config.workers = workers;
  config.tiles_per_worker = tiles_per_worker;
  config.deadline = from_seconds(100000);
  return config;
}

// --- CostOnly workload model --------------------------------------------------

TEST(CostOnlyTest, JobCompletes) {
  const FusionReport r = run_fusion_job(cost_only_config(4, 2));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_EQ(r.outcome.tiles_distributed, 8);
  EXPECT_EQ(r.outcome.tiles_colored, 8);
  EXPECT_GT(r.outcome.unique_set_size, 0u);
  EXPECT_GT(r.total_flops_charged, 0.0);
}

TEST(CostOnlyTest, DeterministicElapsed) {
  const FusionReport a = run_fusion_job(cost_only_config(8, 2));
  const FusionReport b = run_fusion_job(cost_only_config(8, 2));
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(CostOnlyTest, MoreWorkersFaster) {
  const FusionReport one = run_fusion_job(cost_only_config(1, 2));
  const FusionReport four = run_fusion_job(cost_only_config(4, 2));
  const FusionReport sixteen = run_fusion_job(cost_only_config(16, 2));
  ASSERT_TRUE(one.completed && four.completed && sixteen.completed);
  EXPECT_LT(four.elapsed_seconds, one.elapsed_seconds / 2.0);
  EXPECT_LT(sixteen.elapsed_seconds, four.elapsed_seconds);
}

TEST(CostOnlyTest, SpeedupWithin20PercentOfLinearAt16) {
  // The paper's headline Figure 4 claim for the non-resilient algorithm.
  const FusionReport one = run_fusion_job(cost_only_config(1, 2));
  const FusionReport sixteen = run_fusion_job(cost_only_config(16, 2));
  const double speedup = one.elapsed_seconds / sixteen.elapsed_seconds;
  EXPECT_GT(speedup, 16.0 * 0.8);
  EXPECT_LE(speedup, 16.5);
}

TEST(CostOnlyTest, ResiliencyCostsAboutReplicationPlusProtocol) {
  FusionJobConfig plain = cost_only_config(8, 2);
  FusionJobConfig resilient = cost_only_config(8, 2);
  resilient.resilient = true;
  resilient.replication = 2;
  const FusionReport p = run_fusion_job(plain);
  const FusionReport r = run_fusion_job(resilient);
  ASSERT_TRUE(p.completed && r.completed);
  const double ratio = r.elapsed_seconds / p.elapsed_seconds;
  EXPECT_GT(ratio, 1.5);  // replication is not free
  EXPECT_LT(ratio, 3.0);  // but bounded near 2x + protocol overhead
  EXPECT_GT(r.protocol.acks, 0u);
  EXPECT_GT(r.protocol.heartbeats, 0u);
}

TEST(CostOnlyTest, SmpNetworkFasterThanLan) {
  FusionJobConfig lan = cost_only_config(8, 2);
  FusionJobConfig smp = cost_only_config(8, 2);
  smp.network = NetworkKind::kSmp;
  const FusionReport l = run_fusion_job(lan);
  const FusionReport s = run_fusion_job(smp);
  ASSERT_TRUE(l.completed && s.completed);
  EXPECT_LT(s.elapsed_seconds, l.elapsed_seconds);
}

// --- The shared manager steps: refusals --------------------------------------

TEST(FusionCoordinatorTest,
     RefusalsLeaveNoTraceAndCleanRunMatchesFuseParallel) {
  using Intake = FusionCoordinator::Intake;
  const auto scene = test_scene();
  const int tiles = 4;
  const int shards = 3;
  const int bands = scene.cube.bands();
  const PctConfig pct;
  JobOutcome out;
  FusionCoordinator coord({scene.cube.width(), scene.cube.height(), bands},
                          &scene.cube, tiles, pct.screening_threshold,
                          pct.output_components, out);
  ASSERT_EQ(coord.tile_count(), tiles);

  std::vector<TileAssignMsg> assigned;
  std::vector<ScreenResultMsg> screened;
  for (int t = 0; t < tiles; ++t) {
    assigned.push_back(coord.assign(t));
    screened.push_back(screen_shard(assigned[t].tile, assigned[t].data.data(),
                                    pct.screening_threshold));
  }

  // Tile 1 arrives first and waits for tile 0; every refusal must leave
  // the counters, the merge and the pending tile exactly as they were.
  ASSERT_EQ(coord.accept_screen(screened[1]), Intake::kAccepted);
  const std::uint64_t screen_before = out.screen_comparisons;
  const auto refused = [&](ScreenResultMsg r) {
    EXPECT_EQ(coord.accept_screen(std::move(r)), Intake::kRefused);
    EXPECT_EQ(out.screen_comparisons, screen_before);
    EXPECT_EQ(out.merge_comparisons, 0u);
    EXPECT_FALSE(coord.screening_done());
  };
  ScreenResultMsg bad = screened[0];
  bad.tile.index = tiles;
  refused(bad);
  bad.tile.index = -1;
  refused(bad);
  bad = screened[0];
  bad.vectors.push_back(1.0f);  // ragged
  refused(bad);
  bad = screened[0];
  bad.vectors[0] = std::numeric_limits<float>::quiet_NaN();
  refused(bad);
  bad = screened[0];
  bad.vectors.insert(bad.vectors.end(), static_cast<std::size_t>(bands), 0.0f);
  refused(bad);
  EXPECT_EQ(coord.accept_screen(screened[1]), Intake::kRepeat);
  EXPECT_EQ(out.screen_comparisons, screen_before);

  for (const int t : {0, 2, 3}) {
    ASSERT_EQ(coord.accept_screen(screened[t]), Intake::kAccepted);
  }
  ASSERT_TRUE(coord.screening_done());
  EXPECT_EQ(coord.accept_screen(screened[0]), Intake::kRepeat);

  const std::vector<CovShardMsg> shard_msgs = coord.covariance_shards(shards);
  ASSERT_EQ(shard_msgs.size(), static_cast<std::size_t>(shards));
  std::vector<CovSumMsg> sums;
  for (const CovShardMsg& shard : shard_msgs) {
    sums.push_back(cov_shard_sum(shard, bands));
  }
  CovSumMsg bad_sum = sums[0];
  bad_sum.shard_index = shards;  // out of range
  EXPECT_FALSE(coord.accept_cov_sum(bad_sum));
  bad_sum = sums[0];
  bad_sum.accumulator.pop_back();  // undecodable
  EXPECT_FALSE(coord.accept_cov_sum(bad_sum));
  CovShardMsg other_mean = shard_msgs[0];
  other_mean.mean[0] += 1.0;  // computed against a different mean
  EXPECT_FALSE(coord.accept_cov_sum(cov_shard_sum(other_mean, bands)));
  ASSERT_TRUE(coord.accept_cov_sum(sums[0]));
  EXPECT_FALSE(coord.accept_cov_sum(sums[0]));  // repeated
  EXPECT_FALSE(coord.covariance_done());
  for (int s = 1; s < shards; ++s) ASSERT_TRUE(coord.accept_cov_sum(sums[s]));
  ASSERT_TRUE(coord.covariance_done());

  const TransformMsg tm = coord.transform();
  std::vector<ColorTileMsg> colors;
  for (int t = 0; t < tiles; ++t) {
    colors.push_back(
        color_shard(assigned[t].tile, assigned[t].data.data(), tm));
  }
  const std::vector<std::uint8_t> blank = out.composite.data;
  ColorTileMsg bad_color = colors[2];
  bad_color.rgb.pop_back();  // wrong pixel count
  EXPECT_FALSE(coord.accept_color(bad_color));
  bad_color = colors[2];
  bad_color.tile.index = tiles;
  EXPECT_FALSE(coord.accept_color(bad_color));
  EXPECT_EQ(out.composite.data, blank);
  EXPECT_EQ(out.tiles_colored, 0);
  for (int t = 0; t < tiles; ++t) ASSERT_TRUE(coord.accept_color(colors[t]));
  EXPECT_FALSE(coord.accept_color(colors[1]));  // repeat
  EXPECT_EQ(out.tiles_colored, tiles);

  ParallelPctConfig pcfg;
  pcfg.tiles = tiles;
  pcfg.cov_shards = shards;
  const PctResult reference = fuse_parallel(scene.cube, pcfg);
  EXPECT_EQ(out.composite.data, reference.composite.data);
  EXPECT_EQ(out.unique_set_size, reference.unique_set_size);
  EXPECT_EQ(out.eigenvalues, reference.eigenvalues);
  EXPECT_EQ(out.screen_comparisons, reference.screen_comparisons);
  EXPECT_EQ(out.merge_comparisons, reference.merge_comparisons);
}

// --- Full mode correctness ------------------------------------------------------

TEST(DistributedFullTest, MatchesSharedMemoryBitExact) {
  const auto scene = test_scene();
  const int workers = 3;
  const int tiles = 2;  // total 6 tiles
  const FusionReport r =
      run_fusion_job(full_config(scene, workers, tiles));
  ASSERT_TRUE(r.completed);

  ParallelPctConfig pcfg;
  pcfg.tiles = workers * tiles;
  pcfg.cov_shards = workers;  // the manager's shard count
  const PctResult reference = fuse_parallel(scene.cube, pcfg);

  EXPECT_EQ(r.outcome.composite.data, reference.composite.data);
  EXPECT_EQ(r.outcome.unique_set_size, reference.unique_set_size);
  EXPECT_EQ(r.outcome.eigenvalues, reference.eigenvalues);
  EXPECT_EQ(r.outcome.screen_comparisons, reference.screen_comparisons);
  EXPECT_EQ(r.outcome.merge_comparisons, reference.merge_comparisons);
}

TEST(DistributedFullTest, SingleWorkerSingleTileMatchesSequential) {
  const auto scene = test_scene();
  const FusionReport r = run_fusion_job(full_config(scene, 1, 1));
  ASSERT_TRUE(r.completed);
  const PctResult seq = fuse(scene.cube);
  EXPECT_EQ(r.outcome.composite.data, seq.composite.data);
  EXPECT_EQ(r.outcome.unique_set_size, seq.unique_set_size);
}

TEST(DistributedFullTest, WorkerCountDoesNotChangeResult) {
  const auto scene = test_scene();
  // Same total tile count; different worker counts must agree bit-exactly
  // except for the covariance shard split — so fix shards by using the same
  // worker count in the reference... instead compare P=2 against P=2 with
  // a different network to show timing-independence.
  FusionJobConfig a = full_config(scene, 2, 3);
  FusionJobConfig b = full_config(scene, 2, 3);
  b.lan.bandwidth_bytes_per_sec = a.lan.bandwidth_bytes_per_sec / 10.0;
  b.node.flops_per_second = a.node.flops_per_second * 3.0;
  const FusionReport ra = run_fusion_job(a);
  const FusionReport rb = run_fusion_job(b);
  ASSERT_TRUE(ra.completed && rb.completed);
  EXPECT_EQ(ra.outcome.composite.data, rb.outcome.composite.data);
  EXPECT_NE(ra.elapsed_seconds, rb.elapsed_seconds);
}

TEST(DistributedFullTest, ReplicatedRunMatchesPlainRun) {
  const auto scene = test_scene();
  FusionJobConfig plain = full_config(scene, 2, 2);
  FusionJobConfig replicated = full_config(scene, 2, 2);
  replicated.resilient = true;
  replicated.replication = 2;
  const FusionReport p = run_fusion_job(plain);
  const FusionReport r = run_fusion_job(replicated);
  ASSERT_TRUE(p.completed && r.completed);
  EXPECT_EQ(p.outcome.composite.data, r.outcome.composite.data);
  EXPECT_GT(r.elapsed_seconds, p.elapsed_seconds);
}

// --- Resiliency under attack -----------------------------------------------------

TEST(DistributedResilienceTest, SurvivesWorkerNodeCrash) {
  const auto scene = test_scene();
  FusionJobConfig undisturbed = full_config(scene, 3, 3);
  undisturbed.resilient = true;
  undisturbed.replication = 2;

  FusionJobConfig attacked = undisturbed;
  attacked.failures = {{from_millis(600), 2, -1}};  // kill a worker node

  const FusionReport clean = run_fusion_job(undisturbed);
  const FusionReport hit = run_fusion_job(attacked);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(hit.completed);
  EXPECT_EQ(hit.crashes_injected, 1);
  EXPECT_GE(hit.protocol.failures_detected, 1u);
  EXPECT_GE(hit.protocol.replicas_regenerated, 1u);
  EXPECT_GT(hit.protocol.state_transfer_bytes, 0u);

  // The attacked run must produce the exact same fused image.
  EXPECT_EQ(hit.outcome.composite.data, clean.outcome.composite.data);
  // And pay for it in elapsed time.
  EXPECT_GE(hit.elapsed_seconds, clean.elapsed_seconds);
}

TEST(DistributedResilienceTest, SurvivesTwoSpacedCrashes) {
  const auto scene = test_scene();
  FusionJobConfig config = full_config(scene, 3, 3);
  config.resilient = true;
  config.replication = 2;
  config.failures = {{from_millis(500), 1, -1}, {from_millis(1500), 3, -1}};
  const FusionReport r = run_fusion_job(config);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.protocol.replicas_regenerated, 2u);

  FusionJobConfig clean = full_config(scene, 3, 3);
  clean.resilient = true;
  clean.replication = 2;
  const FusionReport reference = run_fusion_job(clean);
  EXPECT_EQ(r.outcome.composite.data, reference.outcome.composite.data);
}

TEST(DistributedResilienceTest, NonResilientRunDiesOnCrash) {
  const auto scene = test_scene();
  FusionJobConfig config = full_config(scene, 3, 2);
  config.failures = {{from_millis(500), 2, -1}};
  config.deadline = from_seconds(60);
  const FusionReport r = run_fusion_job(config);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.crashes_injected, 1);
}

TEST(DistributedResilienceTest, ReplicationWithoutRegenerationDegrades) {
  // Kill the two nodes hosting both replicas of worker 0: with
  // regeneration the job survives; without it the group is lost.
  const auto scene = test_scene();
  FusionJobConfig base = full_config(scene, 3, 3);
  base.resilient = true;
  base.replication = 2;
  base.failures = {{from_millis(500), 1, -1}, {from_millis(1500), 2, -1}};

  FusionJobConfig with_regen = base;
  with_regen.regenerate = true;
  const FusionReport good = run_fusion_job(with_regen);
  EXPECT_TRUE(good.completed);

  FusionJobConfig no_regen = base;
  no_regen.regenerate = false;
  no_regen.deadline = from_seconds(120);
  const FusionReport bad = run_fusion_job(no_regen);
  EXPECT_FALSE(bad.completed);
  EXPECT_GE(bad.protocol.groups_lost, 1u);
}

TEST(DistributedResilienceTest, CostOnlyRecoveryAtPaperScale) {
  FusionJobConfig config = cost_only_config(8, 2);
  config.resilient = true;
  config.replication = 2;
  config.runtime.heartbeat_period = from_millis(250);
  config.runtime.failure_timeout = from_seconds(1);
  config.failures = {{from_seconds(20), 3, -1}};
  const FusionReport r = run_fusion_job(config);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.protocol.replicas_regenerated, 1u);
}

}  // namespace
}  // namespace rif::core
