// Tests of the streaming fusion subsystem: BoundedQueue semantics
// (backpressure, shutdown, pool-interaction regression), ChunkedCubeReader
// windowed reads for all three interleaves, and the StreamingFusionEngine
// contract — equivalence with fuse_parallel at matching tile
// boundaries, bounded buffer footprint, and deadlock-freedom on a 1-thread
// help-while-waiting pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/distributed/fusion_job.h"
#include "core/parallel/parallel_pct.h"
#include "core/parallel/thread_pool.h"
#include "hsi/chunked_reader.h"
#include "hsi/cube_io.h"
#include "hsi/scene.h"
#include "runtime/autotuner.h"
#include "runtime/metrics.h"
#include "stream/bounded_queue.h"
#include "stream/streaming_engine.h"

namespace rif {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Save a scene cube to a temp file and return the data path.
std::string save_scene(const hsi::Scene& scene, const std::string& name,
                       hsi::Interleave il = hsi::Interleave::kBip) {
  const std::string path = temp_path(name);
  EXPECT_TRUE(hsi::save_cube(path, scene.cube, il, scene.wavelengths));
  return path;
}

void remove_cube(const std::string& path) {
  fs::remove(path);
  fs::remove(path + ".hdr");
}

hsi::Scene small_scene(int w = 64, int h = 60, int bands = 20) {
  hsi::SceneConfig config;
  config.width = w;
  config.height = h;
  config.bands = bands;
  return hsi::generate_scene(config);
}

// --- BoundedQueue ------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrderAndSizes) {
  stream::BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPop) {
  stream::BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // must block: queue is at capacity
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());  // backpressure held the producer
  EXPECT_EQ(q.size(), 2u);            // capacity never exceeded

  EXPECT_EQ(q.pop(), 1);  // makes room
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GT(q.push_stall_seconds(), 0.0);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueueTest, CloseWakesAllBlockedConsumers) {
  stream::BoundedQueue<int> q(2);
  constexpr int kConsumers = 4;
  std::atomic<int> done{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      EXPECT_EQ(q.pop(), std::nullopt);  // empty + closed = end of stream
      ++done;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);  // all parked on the empty queue
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(done.load(), kConsumers);
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducerAndDropsItem) {
  stream::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::thread producer([&] {
    EXPECT_FALSE(q.push(8));  // blocked on full, then closed: item dropped
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop(), 7);               // queued items still drain
  EXPECT_EQ(q.pop(), std::nullopt);    // then end-of-stream
  EXPECT_FALSE(q.push(9));             // pushes keep failing after close
}

// The pattern the streaming engine relies on: the producer owns a
// dedicated thread while consumers borrow pool threads that park (without
// helping) in pop(). Even a 1-thread pool must make progress — the PR 2
// nested-parallelism guarantee extended to queue-coupled stages.
TEST(BoundedQueueTest, DedicatedProducerPoolConsumerNoDeadlock) {
  core::ThreadPool pool(1);
  stream::BoundedQueue<int> q(2);
  constexpr int kItems = 100;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      if (!q.push(i)) return;
    }
    q.close();
  });
  std::atomic<long> sum{0};
  pool.parallel_tasks(2, [&](int) {
    while (const auto v = q.pop()) sum += *v;
  });
  producer.join();
  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems - 1) / 2);
}

// --- ChunkedCubeReader -------------------------------------------------------

class ChunkedReaderInterleaveTest
    : public ::testing::TestWithParam<hsi::Interleave> {};

TEST_P(ChunkedReaderInterleaveTest, WindowedReadsMatchCube) {
  const auto scene = small_scene(17, 13, 5);
  const std::string path =
      save_scene(scene, std::string("rif_stream_reader_") +
                            hsi::interleave_name(GetParam()) + ".dat",
                 GetParam());
  auto reader = hsi::ChunkedCubeReader::open(path);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->samples(), 17);
  EXPECT_EQ(reader->lines(), 13);
  EXPECT_EQ(reader->bands(), 5);

  // Windows of several sizes, in arbitrary order, match the in-memory BIP
  // cube exactly — including re-reads of earlier lines (pass 2 rewinds).
  const std::vector<float>& raw = scene.cube.raw();
  const std::size_t line_floats = 17 * 5;
  std::vector<float> chunk;
  for (const auto& [line0, rows] : std::vector<std::pair<int, int>>{
           {0, 4}, {4, 4}, {8, 5}, {2, 7}, {0, 13}, {12, 1}, {0, 4}}) {
    ASSERT_TRUE(reader->read_lines(line0, rows, chunk));
    ASSERT_EQ(chunk.size(), line_floats * rows);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      ASSERT_EQ(chunk[i], raw[line0 * line_floats + i])
          << "line0=" << line0 << " rows=" << rows << " i=" << i;
    }
  }
  remove_cube(path);
}

INSTANTIATE_TEST_SUITE_P(Interleaves, ChunkedReaderInterleaveTest,
                         ::testing::Values(hsi::Interleave::kBip,
                                           hsi::Interleave::kBil,
                                           hsi::Interleave::kBsq));

TEST(ChunkedReaderTest, RejectsSizeMismatchLikeLoadCube) {
  const auto scene = small_scene(8, 6, 3);
  const std::string path = save_scene(scene, "rif_stream_badsize.dat");

  // Truncated: both loaders refuse through the one validation path.
  fs::resize_file(path, 10);
  EXPECT_FALSE(hsi::ChunkedCubeReader::open(path).has_value());
  EXPECT_FALSE(hsi::load_cube(path).has_value());

  // Oversized: also refused (a silent extra tail means interleave or dims
  // are wrong — reading "successfully" would fuse garbage).
  fs::resize_file(path, hsi::expected_data_bytes(
                            {8, 6, 3, hsi::Interleave::kBip, {}}) +
                            4);
  EXPECT_FALSE(hsi::ChunkedCubeReader::open(path).has_value());
  EXPECT_FALSE(hsi::load_cube(path).has_value());
  remove_cube(path);
}

TEST(ChunkedReaderTest, TruncationMidStreamFailsTheReadNotTheProcess) {
  // A cube that passes open()'s size validation can still shrink while a
  // job streams it (log rotation, a flaky mount, an overwrite). The reader
  // must fail THAT read — the engine fails the job — never abort: this is
  // runtime input, not a programming error.
  // (Large enough that the lost tail is beyond any stdio read-ahead
  // buffer, so the truncation is really observed by the next read.)
  const auto scene = small_scene();  // 64 x 60 x 20 = 300 KiB on disk
  const std::string path = save_scene(scene, "rif_stream_midtrunc.dat");
  auto reader = hsi::ChunkedCubeReader::open(path);
  ASSERT_TRUE(reader.has_value());

  std::vector<float> chunk;
  ASSERT_TRUE(reader->read_lines(0, 4, chunk));  // healthy first chunk

  // The file loses its second half mid-stream.
  fs::resize_file(path, hsi::expected_data_bytes(
                            {64, 60, 20, hsi::Interleave::kBip, {}}) /
                            2);
  EXPECT_FALSE(reader->read_lines(40, 8, chunk));  // short read, clean false
  EXPECT_TRUE(reader->read_lines(0, 4, chunk));    // surviving range still ok

  // Out-of-range requests (a header that lied) fail the same soft way.
  EXPECT_FALSE(reader->read_lines(-1, 2, chunk));
  EXPECT_FALSE(reader->read_lines(0, 0, chunk));
  EXPECT_FALSE(reader->read_lines(58, 4, chunk));
  remove_cube(path);
}

// --- StreamingFusionEngine ---------------------------------------------------

/// Chunk/tile geometry chosen so streamed tile boundaries equal
/// fuse_parallel's row partition: 60 rows, chunks of 15, 3 sub-tiles
/// per chunk  <=>  12 even tiles of 5 rows.
struct MatchedGeometry {
  static constexpr int kHeight = 60;
  static constexpr int kChunkLines = 15;
  static constexpr int kTilesPerChunk = 3;
  static constexpr int kTiles = 12;
};

TEST(StreamingEngineTest, MatchesFusedEngineAtMatchedTileBoundaries) {
  const auto scene = small_scene(64, MatchedGeometry::kHeight, 20);
  const std::string path = save_scene(scene, "rif_stream_equiv.dat");

  core::ParallelPctConfig fused_cfg;
  fused_cfg.threads = 4;
  fused_cfg.tiles = MatchedGeometry::kTiles;
  fused_cfg.cov_shards = 1;  // the streaming driver's one shard
  const core::PctResult fused = fuse_parallel(scene.cube, fused_cfg);

  stream::StreamingConfig cfg;
  cfg.chunk_lines = MatchedGeometry::kChunkLines;
  cfg.tiles_per_chunk = MatchedGeometry::kTilesPerChunk;
  core::ThreadPool pool(4);
  const auto streamed = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(streamed.has_value());

  // One shared engine, same tile boundaries => byte-identical output.
  EXPECT_EQ(streamed->unique_set_size, fused.unique_set_size);
  EXPECT_EQ(streamed->screen_comparisons, fused.screen_comparisons);
  EXPECT_EQ(streamed->merge_comparisons, fused.merge_comparisons);
  EXPECT_EQ(streamed->eigenvalues, fused.eigenvalues);
  EXPECT_EQ(streamed->mean, fused.mean);
  EXPECT_EQ(streamed->composite.data, fused.composite.data);

  // And the sim manager with one worker (one shard) over the same tiles.
  core::FusionJobConfig job;
  job.mode = core::ExecutionMode::kFull;
  job.cube = &scene.cube;
  job.shape = {scene.cube.width(), scene.cube.height(), scene.cube.bands()};
  job.workers = 1;
  job.tiles_per_worker = MatchedGeometry::kTiles;
  const core::FusionReport sim = core::run_fusion_job(job);
  ASSERT_TRUE(sim.completed);
  EXPECT_EQ(streamed->unique_set_size, sim.outcome.unique_set_size);
  EXPECT_EQ(streamed->screen_comparisons, sim.outcome.screen_comparisons);
  EXPECT_EQ(streamed->merge_comparisons, sim.outcome.merge_comparisons);
  EXPECT_EQ(streamed->eigenvalues, sim.outcome.eigenvalues);
  EXPECT_EQ(streamed->composite.data, sim.outcome.composite.data);
  remove_cube(path);
}

TEST(StreamingEngineTest, InterleaveOnDiskDoesNotChangeResult) {
  const auto scene = small_scene(32, 24, 12);
  core::ThreadPool pool(2);
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 7;  // deliberately not a divisor of 24
  cfg.tiles_per_chunk = 2;

  std::optional<stream::StreamingResult> reference;
  for (const auto il : {hsi::Interleave::kBip, hsi::Interleave::kBil,
                        hsi::Interleave::kBsq}) {
    const std::string path =
        save_scene(scene, std::string("rif_stream_il_") +
                              hsi::interleave_name(il) + ".dat",
                   il);
    auto r = stream::fuse_streaming(path, pool, cfg);
    ASSERT_TRUE(r.has_value()) << hsi::interleave_name(il);
    if (!reference) {
      reference = std::move(r);
    } else {
      // Same BIP chunk contents regardless of on-disk layout => the whole
      // pipeline is bit-identical.
      EXPECT_EQ(r->composite.data, reference->composite.data)
          << hsi::interleave_name(il);
      EXPECT_EQ(r->unique_set_size, reference->unique_set_size);
    }
    remove_cube(path);
  }
}

TEST(StreamingEngineTest, BufferFootprintStaysBounded) {
  const auto scene = small_scene(48, 96, 16);
  const std::string path = save_scene(scene, "rif_stream_mem.dat");
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 8;
  cfg.queue_depth = 3;
  core::ThreadPool pool(2);
  const auto r = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r.has_value());

  const auto& stats = r->stats;
  EXPECT_EQ(stats.chunks, 12);
  EXPECT_EQ(stats.chunk_bytes, 8ull * 48 * 16 * sizeof(float));
  // The acceptance bound: never more than queue_depth chunk buffers live,
  // and far below the whole-cube footprint the in-memory engines need.
  EXPECT_GT(stats.peak_buffer_bytes, 0u);
  EXPECT_LE(stats.peak_buffer_bytes,
            static_cast<std::uint64_t>(cfg.queue_depth) * stats.chunk_bytes);
  EXPECT_LT(stats.peak_buffer_bytes, scene.cube.bytes() / 2);
  // Two passes over the file.
  EXPECT_EQ(stats.bytes_read, 2 * scene.cube.bytes());
  EXPECT_GT(stats.read_seconds, 0.0);
  EXPECT_GT(stats.screen_seconds, 0.0);
  EXPECT_GT(stats.transform_seconds, 0.0);
  remove_cube(path);
}

// The PR 2 regression pattern extended to the streaming pipeline: ALL
// compute nested on a 1-thread help-while-waiting pool, reader on its own
// thread. Any accidental pool-borrowing in the reader path would deadlock.
TEST(StreamingEngineTest, OneThreadPoolPipelineCompletes) {
  const auto scene = small_scene(24, 20, 8);
  const std::string path = save_scene(scene, "rif_stream_1thread.dat");
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 6;
  core::ThreadPool pool(1);
  const auto r = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
  EXPECT_GE(r->unique_set_size, 3u);
  remove_cube(path);
}

TEST(StreamingEngineTest, PlaneSinkStreamsEveryPixelInOrder) {
  const auto scene = small_scene(16, 20, 6);
  const std::string path = save_scene(scene, "rif_stream_sink.dat");

  // Reference planes from the in-memory engine at the same tile
  // boundaries (5 chunks x 1 sub-tile == 5 even row tiles).
  core::ParallelPctConfig fused_cfg;
  fused_cfg.threads = 2;
  fused_cfg.tiles = 5;
  const core::PctResult fused = fuse_parallel(scene.cube, fused_cfg);

  stream::StreamingConfig cfg;
  cfg.chunk_lines = 4;
  cfg.tiles_per_chunk = 1;
  std::int64_t next_flat = 0;
  std::vector<float> pc1(static_cast<std::size_t>(scene.cube.pixel_count()));
  cfg.plane_sink = [&](std::int64_t first_flat, std::int64_t count,
                       int comps, const float* planes) {
    EXPECT_EQ(first_flat, next_flat);  // ascending chunk order
    ASSERT_EQ(comps, 3);
    for (std::int64_t k = 0; k < count; ++k) {
      pc1[static_cast<std::size_t>(first_flat + k)] = planes[k * comps];
    }
    next_flat = first_flat + count;
  };
  core::ThreadPool pool(2);
  const auto r = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(next_flat, scene.cube.pixel_count());  // full coverage
  ASSERT_EQ(r->unique_set_size, fused.unique_set_size);
  for (std::size_t i = 0; i < pc1.size(); ++i) {
    ASSERT_NEAR(pc1[i], fused.component_planes[0][i],
                1e-4 * std::max(1.0f,
                                std::abs(fused.component_planes[0][i])))
        << "pixel " << i;
  }
  remove_cube(path);
}

TEST(StreamingEngineTest, MissingFileReturnsNullopt) {
  core::ThreadPool pool(1);
  EXPECT_FALSE(stream::fuse_streaming(temp_path("rif_stream_no_such.dat"),
                                      pool, {})
                   .has_value());
}

// Regression for the shared-bounds satellite: zero and absurdly huge
// chunk geometry used to be caught inconsistently (submit-time clamp vs
// engine CHECK-abort); both now fail through runtime::validate_chunk_
// geometry with a clear logged error and a nullopt, before any I/O.
TEST(StreamingEngineTest, BadChunkGeometryFailsCleanly) {
  const auto scene = small_scene(16, 12, 4);
  const std::string path = save_scene(scene, "rif_stream_geom.dat");
  core::ThreadPool pool(1);
  const auto run = [&](int chunk_lines, int queue_depth) {
    stream::StreamingConfig cfg;
    cfg.chunk_lines = chunk_lines;
    cfg.queue_depth = queue_depth;
    return stream::fuse_streaming(path, pool, cfg);
  };
  EXPECT_FALSE(run(0, 4).has_value());        // zero chunk
  EXPECT_FALSE(run(-3, 4).has_value());
  EXPECT_FALSE(run(70000, 4).has_value());    // over kMaxChunkLines
  EXPECT_FALSE(run(8, 0).has_value());        // no pipeline slots
  EXPECT_FALSE(run(8, 2).has_value());        // below the 3-buffer minimum
  EXPECT_FALSE(run(8, 1000).has_value());     // read-ahead = resident cube
  EXPECT_TRUE(run(8, 3).has_value());         // bounds are not over-eager
  remove_cube(path);
}

TEST(StreamingEngineTest, DegenerateSceneFailsTheJobNotTheProcess) {
  // A constant cube screens down to a single unique member — no basis for
  // a principal-component transform. That is a property of the INPUT, so
  // the run must return nullopt (the service fails the one job) instead of
  // tripping the old RIF_CHECK abort.
  hsi::ImageCube cube(16, 12, 4);
  for (int y = 0; y < cube.height(); ++y) {
    for (int x = 0; x < cube.width(); ++x) {
      auto px = cube.pixel(x, y);
      for (int b = 0; b < cube.bands(); ++b) {
        px[b] = 1.0f + 0.1f * static_cast<float>(b);
      }
    }
  }
  const std::string path = temp_path("rif_stream_degenerate.dat");
  ASSERT_TRUE(hsi::save_cube(path, cube));
  core::ThreadPool pool(2);
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 4;
  EXPECT_FALSE(stream::fuse_streaming(path, pool, cfg).has_value());
  remove_cube(path);
}

// --- adaptive runtime integration --------------------------------------------

TEST(StreamingEngineTest, AutotunedRunConvergesWithinBoundsAndBudget) {
  const auto scene = small_scene(48, 120, 12);
  const std::string path = save_scene(scene, "rif_stream_tuned.dat");
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 8;
  cfg.queue_depth = 4;
  runtime::AutotuneConfig tune;
  tune.min_chunk_lines = 4;
  tune.max_chunk_lines = 64;
  tune.epoch_chunks = 2;
  // Budget: the configured geometry's footprint — tuning may reshape the
  // chunks-vs-depth split but must never outgrow it.
  const std::uint64_t bytes_per_line = 48ull * 12 * sizeof(float);
  tune.memory_budget = 4 * 8 * bytes_per_line;
  cfg.autotune = tune;

  core::ThreadPool pool(2);
  const auto r = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r.has_value());
  // A valid fusion came out (tuned chunk boundaries match no fixed
  // tiling, so only structural properties are pinned).
  EXPECT_EQ(r->composite.data.size(),
            static_cast<std::size_t>(scene.cube.pixel_count()) * 3);
  EXPECT_GE(r->unique_set_size, 3u);
  EXPECT_EQ(r->stats.bytes_read, 2 * scene.cube.bytes());

  const runtime::AutotuneReport& tuned = r->autotune;
  EXPECT_TRUE(tuned.enabled);
  EXPECT_EQ(tuned.initial_chunk_lines, 8);
  EXPECT_FALSE(tuned.trajectory.empty());
  for (const auto& d : tuned.trajectory) {
    EXPECT_GE(d.chunk_lines, 4);
    EXPECT_LE(d.chunk_lines, 64);
    EXPECT_GE(d.queue_depth, 3);
    EXPECT_LE(static_cast<std::uint64_t>(d.queue_depth) * d.chunk_lines *
                  bytes_per_line,
              tune.memory_budget);
  }
  // The engine's own accounting respects the budget end to end.
  EXPECT_LE(r->stats.peak_buffer_bytes, tune.memory_budget);
  remove_cube(path);
}

TEST(StreamingEngineTest, RunMergesRegistryBackedSeriesIntoCallerRegistry) {
  const auto scene = small_scene(32, 30, 8);
  const std::string path = save_scene(scene, "rif_stream_metrics.dat");
  runtime::MetricsRegistry service_reg;
  stream::StreamingConfig cfg;
  cfg.chunk_lines = 10;
  cfg.metrics = &service_reg;
  cfg.metrics_prefix = "stream.";
  core::ThreadPool pool(2);
  const auto r = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r.has_value());

  // StreamingStats is a view over the same series the caller registry
  // received: the two must agree exactly.
  EXPECT_EQ(service_reg.counter_value("stream.chunks"),
            static_cast<std::uint64_t>(r->stats.chunks));
  EXPECT_EQ(service_reg.counter_value("stream.bytes_read"),
            r->stats.bytes_read);
  EXPECT_EQ(static_cast<std::uint64_t>(
                service_reg.gauge_value("stream.peak_buffer_bytes")),
            r->stats.peak_buffer_bytes);
  const runtime::Histogram* reads =
      service_reg.find_histogram("stream.chunk_read_seconds");
  ASSERT_NE(reads, nullptr);
  // Per-chunk latency histograms: one observation per chunk per pass.
  EXPECT_EQ(reads->count(), 2u * static_cast<std::uint64_t>(r->stats.chunks));
  EXPECT_NEAR(reads->sum(), r->stats.read_seconds, 1e-12);

  // A second run into the same registry aggregates instead of clobbering.
  const auto r2 = stream::fuse_streaming(path, pool, cfg);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(service_reg.counter_value("stream.bytes_read"),
            r->stats.bytes_read + r2->stats.bytes_read);
  remove_cube(path);
}

}  // namespace
}  // namespace rif
