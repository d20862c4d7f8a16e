#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include "core/parallel/parallel_pct.h"
#include "core/parallel/thread_pool.h"
#include "hsi/scene.h"

namespace rif::core {
namespace {

hsi::Scene test_scene(int size = 48, int bands = 20, std::uint64_t seed = 21) {
  hsi::SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.bands = bands;
  cfg.seed = seed;
  return hsi::generate_scene(cfg);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelTasksRunAll) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  pool.parallel_tasks(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_tasks(4,
                                   [](int i) {
                                     if (i == 2) throw std::runtime_error("x");
                                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::int64_t, std::int64_t) { FAIL(); });
  pool.parallel_tasks(0, [](int) { FAIL(); });
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_tasks(8, [&](int) { ++count; });
  }
  EXPECT_EQ(count.load(), 40);
}

// Regression: parallel_tasks used to deadlock when called from a worker
// thread — the caller slept on a condition variable while occupying the
// only worker slot. The help-while-waiting pool must run this to
// completion even when every level of nesting goes through the single
// worker.
TEST(ThreadPoolTest, NestedParallelismOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> leaf{0};
  pool.parallel_tasks(3, [&](int) {
    pool.parallel_for(50, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) ++leaf;
    });
  });
  EXPECT_EQ(leaf.load(), 150);
}

TEST(ThreadPoolTest, DeeplyNestedTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  pool.parallel_tasks(4, [&](int) {
    pool.parallel_tasks(3, [&](int) {
      pool.parallel_tasks(2, [&](int) { ++leaf; });
    });
  });
  EXPECT_EQ(leaf.load(), 24);
}

TEST(ThreadPoolTest, NestedExceptionPropagatesThroughOuterGroup) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_tasks(
                   2,
                   [&](int i) {
                     pool.parallel_tasks(2, [&](int j) {
                       if (i == 1 && j == 1) throw std::runtime_error("deep");
                     });
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, IdleSecondsTracksParkedWorkers) {
  ThreadPool pool(2);
  // Workers park immediately: idle grows while the pool sits unused, and
  // in-progress parks are visible at read time (no wake-up needed) — this
  // is what makes interval deltas exact across park boundaries.
  const double idle0 = pool.idle_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double idle1 = pool.idle_seconds();
  EXPECT_GE(idle1 - idle0, 0.1);  // 2 parked workers x 100 ms, minus slop

  // Saturating work: 3 tasks occupy both workers AND the helping caller
  // (which always drains the queue too, but is external and never
  // counted). A 3-way start latch proves all three are inside tasks; the
  // other two then hold at an exit barrier until the reading task is done.
  // No worker is parked anywhere in that window, so worker idle must not
  // move at all between two reads taken inside it.
  std::latch started(3);
  std::latch reads_done(1);
  double in_a = -1.0;
  double in_b = -2.0;
  pool.parallel_tasks(3, [&](int i) {
    started.arrive_and_wait();
    if (i != 0) {
      reads_done.wait();
      return;
    }
    in_a = pool.idle_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    in_b = pool.idle_seconds();
    reads_done.count_down();
  });
  EXPECT_EQ(in_a, in_b);
}

// Concurrent callers from non-pool threads (the FusionService pattern:
// many jobs sharing one pool) must all complete.
TEST(ThreadPoolTest, ConcurrentExternalCallersShareOnePool) {
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.parallel_tasks(8, [&](int) {
        pool.parallel_for(10, [&](std::int64_t lo, std::int64_t hi) {
          leaf += static_cast<int>(hi - lo);
        });
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(leaf.load(), 4 * 8 * 10);
}

// --- fuse_parallel ------------------------------------------------------------

TEST(ParallelPctTest, SingleTileMatchesSequentialExactly) {
  const auto scene = test_scene();
  const PctResult seq = fuse(scene.cube);
  ParallelPctConfig config;
  config.threads = 4;
  config.tiles = 1;       // whole cube as one tile: same screening order
  config.cov_shards = 1;  // same covariance summation grouping
  const PctResult par = fuse_parallel(scene.cube, config);
  EXPECT_EQ(par.composite.data, seq.composite.data);
  EXPECT_EQ(par.unique_set_size, seq.unique_set_size);
  EXPECT_EQ(par.eigenvalues, seq.eigenvalues);
}

TEST(ParallelPctTest, ThreadCountDoesNotChangeResult) {
  const auto scene = test_scene();
  ParallelPctConfig config;
  config.tiles = 6;
  config.cov_shards = 4;  // fixed grouping: thread count must not matter
  config.threads = 1;
  const PctResult one = fuse_parallel(scene.cube, config);
  config.threads = 8;
  const PctResult eight = fuse_parallel(scene.cube, config);
  // Same tile decomposition => identical output regardless of threads.
  EXPECT_EQ(one.composite.data, eight.composite.data);
  EXPECT_EQ(one.unique_set_size, eight.unique_set_size);
}

TEST(ParallelPctTest, TiledResultCloseToSequential) {
  // Per-tile screening discovers a slightly different unique set than the
  // global pass, but the fused statistics must stay close.
  const auto scene = test_scene(64, 24, 33);
  const PctResult seq = fuse(scene.cube);
  ParallelPctConfig config;
  config.threads = 4;
  config.tiles = 8;
  const PctResult par = fuse_parallel(scene.cube, config);
  ASSERT_EQ(par.eigenvalues.size(), seq.eigenvalues.size());
  EXPECT_NEAR(par.eigenvalues[0], seq.eigenvalues[0],
              0.15 * seq.eigenvalues[0]);
  // Composites agree on the vast majority of pixels to within a few levels.
  std::size_t close = 0;
  for (std::size_t i = 0; i < seq.composite.data.size(); ++i) {
    if (std::abs(int(par.composite.data[i]) - int(seq.composite.data[i])) <= 8) {
      ++close;
    }
  }
  EXPECT_GT(static_cast<double>(close) / seq.composite.data.size(), 0.9);
}

TEST(ParallelPctTest, SharedPoolReuse) {
  const auto scene = test_scene(32);
  ThreadPool pool(4);
  ParallelPctConfig config;
  config.tiles = 4;
  const PctResult a = fuse_parallel(scene.cube, pool, config);
  const PctResult b = fuse_parallel(scene.cube, pool, config);
  EXPECT_EQ(a.composite.data, b.composite.data);
}

TEST(ParallelPctTest, OddTileCountIsThreadCountInvariant) {
  const auto scene = test_scene();
  ParallelPctConfig config;
  config.tiles = 7;  // odd: exercises the unpaired trailing set in merges
  config.cov_shards = 3;
  config.threads = 1;
  const PctResult one = fuse_parallel(scene.cube, config);
  config.threads = 8;
  const PctResult eight = fuse_parallel(scene.cube, config);
  EXPECT_EQ(one.composite.data, eight.composite.data);
  EXPECT_EQ(one.unique_set_size, eight.unique_set_size);
  EXPECT_EQ(one.eigenvalues, eight.eigenvalues);
}

TEST(ParallelPctTest, MoreTilesThanRowsClampsToRowCount) {
  // 12 rows, 40 tiles requested: partition_rows emits 12 one-row tiles and
  // the engine must still produce a full-size, valid composite.
  const auto scene = test_scene(12, 16, 5);
  ParallelPctConfig config;
  config.threads = 4;
  config.tiles = 40;
  const PctResult r = fuse_parallel(scene.cube, config);
  EXPECT_GE(r.unique_set_size, 3u);
  EXPECT_EQ(r.composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
  const PctResult fused = fuse_parallel_fused(scene.cube, config);
  EXPECT_EQ(fused.composite.data.size(), r.composite.data.size());
}

class ParallelTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelTileSweep, AllGranularitiesProduceValidOutput) {
  const auto scene = test_scene(40);
  ParallelPctConfig config;
  config.threads = 4;
  config.tiles = GetParam();
  const PctResult r = fuse_parallel(scene.cube, config);
  EXPECT_GE(r.unique_set_size, 3u);
  EXPECT_EQ(r.composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
}

INSTANTIATE_TEST_SUITE_P(Tiles, ParallelTileSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

// --- fuse_parallel_fused ------------------------------------------------------

TEST(FusedPctTest, SingleTileMatchesSequentialWithinTolerance) {
  // One tile: identical unique set and screening order, so the only
  // difference from fuse() is rounding in the moment correction. Composite
  // bytes may shift by at most one quantisation level.
  const auto scene = test_scene();
  const PctResult seq = fuse(scene.cube);
  ParallelPctConfig config;
  config.threads = 4;
  config.tiles = 1;
  const PctResult fused = fuse_parallel_fused(scene.cube, config);
  EXPECT_EQ(fused.unique_set_size, seq.unique_set_size);
  ASSERT_EQ(fused.eigenvalues.size(), seq.eigenvalues.size());
  for (std::size_t i = 0; i < seq.eigenvalues.size(); ++i) {
    EXPECT_NEAR(fused.eigenvalues[i], seq.eigenvalues[i],
                1e-9 * std::max(1.0, std::abs(seq.eigenvalues[i])));
  }
  ASSERT_EQ(fused.composite.data.size(), seq.composite.data.size());
  for (std::size_t i = 0; i < seq.composite.data.size(); ++i) {
    ASSERT_LE(std::abs(int(fused.composite.data[i]) -
                       int(seq.composite.data[i])),
              1)
        << "pixel byte " << i;
  }
}

TEST(FusedPctTest, MatchesTwoPassEngineTileForTile) {
  // Same tile count => same screening order and same merged unique set as
  // the two-pass engine; statistics agree to rounding.
  const auto scene = test_scene(64, 24, 33);
  for (const int tiles : {3, 8}) {
    ParallelPctConfig config;
    config.threads = 4;
    config.tiles = tiles;
    const PctResult two_pass = fuse_parallel(scene.cube, config);
    const PctResult fused = fuse_parallel_fused(scene.cube, config);
    EXPECT_EQ(fused.unique_set_size, two_pass.unique_set_size) << tiles;
    EXPECT_GT(two_pass.merge_comparisons, 0u);
    EXPECT_GT(fused.merge_comparisons, 0u);
    ASSERT_EQ(fused.composite.data.size(), two_pass.composite.data.size());
    for (std::size_t i = 0; i < two_pass.composite.data.size(); ++i) {
      ASSERT_LE(std::abs(int(fused.composite.data[i]) -
                         int(two_pass.composite.data[i])),
                1)
          << "tiles=" << tiles << " byte " << i;
    }
  }
}

TEST(FusedPctTest, ThreadCountDoesNotChangeResult) {
  const auto scene = test_scene();
  ParallelPctConfig config;
  config.tiles = 6;
  config.threads = 1;
  const PctResult one = fuse_parallel_fused(scene.cube, config);
  config.threads = 8;
  const PctResult eight = fuse_parallel_fused(scene.cube, config);
  EXPECT_EQ(one.composite.data, eight.composite.data);
  EXPECT_EQ(one.eigenvalues, eight.eigenvalues);
  EXPECT_EQ(one.unique_set_size, eight.unique_set_size);
}

TEST(FusedPctTest, SharedPoolNestedJobsProduceIdenticalResults) {
  // Two fused jobs running CONCURRENTLY as tasks of the same pool they fuse
  // on — the FusionService execution pattern. Requires the deadlock-free
  // help-while-waiting pool.
  const auto scene = test_scene(32);
  ParallelPctConfig config;
  config.tiles = 4;
  const PctResult reference = fuse_parallel_fused(scene.cube, config);
  ThreadPool pool(2);
  std::vector<PctResult> results(2);
  pool.parallel_tasks(2, [&](int i) {
    results[i] = fuse_parallel_fused(scene.cube, pool, config);
  });
  for (const auto& r : results) {
    EXPECT_EQ(r.composite.data, reference.composite.data);
    EXPECT_EQ(r.unique_set_size, reference.unique_set_size);
  }
}

}  // namespace
}  // namespace rif::core
