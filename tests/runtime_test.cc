// Tests of the runtime (src/runtime/): the MetricsRegistry series
// semantics (counters, sum/max gauges, histogram buckets, cross-registry
// merge, JSON snapshot), the shared chunk-geometry bounds, and the
// ThreadPool metrics wiring.
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/parallel/thread_pool.h"
#include "runtime/chunk_geometry.h"
#include "runtime/metrics.h"

namespace rif::runtime {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CounterAccumulatesAndNamesAreStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name => same series; different name => fresh series.
  EXPECT_EQ(&reg.counter("events"), &c);
  EXPECT_EQ(reg.counter("other").value(), 0u);
  EXPECT_EQ(reg.counter_value("events"), 42u);
  EXPECT_EQ(reg.counter_value("never-created"), 0u);
}

TEST(MetricsTest, GaugeKindsSumAndMax) {
  MetricsRegistry reg;
  Gauge& sum = reg.gauge("stall_seconds", GaugeKind::kSum);
  sum.record(1.5);
  sum.record(2.5);
  EXPECT_DOUBLE_EQ(sum.value(), 4.0);

  Gauge& peak = reg.gauge("peak_bytes", GaugeKind::kMax);
  peak.record(100.0);
  peak.record(40.0);  // below the high-water: ignored
  peak.record(250.0);
  EXPECT_DOUBLE_EQ(peak.value(), 250.0);

  peak.set(7.0);  // snapshot overwrite bypasses the kind
  EXPECT_DOUBLE_EQ(peak.value(), 7.0);
}

TEST(MetricsTest, HistogramCountsSumsAndQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);

  for (int i = 0; i < 90; ++i) h.observe(1e-3);  // ~1 ms
  for (int i = 0; i < 10; ++i) h.observe(1.0);   // 1 s tail
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 0.09 + 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Bucket-resolution estimates: p50 lands in the ~1ms bucket (upper edge
  // < 2ms), p99 in the 1s bucket.
  EXPECT_LE(h.quantile(0.50), 2e-3);
  EXPECT_GT(h.quantile(0.99), 0.5);
  EXPECT_LE(h.quantile(0.99), 1.0 + 1e-12);
}

TEST(MetricsTest, MergeIntoPrefixesAndFollowsSeriesSemantics) {
  MetricsRegistry job;
  job.counter("bytes").add(1000);
  job.gauge("stall", GaugeKind::kSum).record(2.0);
  job.gauge("peak", GaugeKind::kMax).record(300.0);
  job.histogram("lat").observe(0.25);

  MetricsRegistry service;
  service.counter("stream.bytes").add(11);
  service.gauge("stream.stall", GaugeKind::kSum).record(1.0);
  service.gauge("stream.peak", GaugeKind::kMax).record(500.0);

  job.merge_into(service, "stream.");
  EXPECT_EQ(service.counter_value("stream.bytes"), 1011u);          // add
  EXPECT_DOUBLE_EQ(service.gauge_value("stream.stall"), 3.0);       // add
  EXPECT_DOUBLE_EQ(service.gauge_value("stream.peak"), 500.0);      // max
  const Histogram* h = service.find_histogram("stream.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.25);
  EXPECT_DOUBLE_EQ(h->min(), 0.25);

  // A second job's peak below the service high-water does not lower it.
  MetricsRegistry job2;
  job2.gauge("peak", GaugeKind::kMax).record(120.0);
  job2.merge_into(service, "stream.");
  EXPECT_DOUBLE_EQ(service.gauge_value("stream.peak"), 500.0);
}

TEST(MetricsTest, JsonSnapshotCarriesEverySeries) {
  MetricsRegistry reg;
  reg.counter("service.completed").add(3);
  reg.gauge("pool.utilization").set(0.75);
  reg.histogram("tenant.ana.latency_seconds").observe(0.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"service.completed\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"pool.utilization\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"tenant.ana.latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// --- chunk geometry bounds ---------------------------------------------------

TEST(ChunkGeometryTest, SharedBoundsAcceptAndRejectConsistently) {
  EXPECT_EQ(validate_chunk_geometry(1, 3), nullptr);
  EXPECT_EQ(validate_chunk_geometry(64, 4), nullptr);
  EXPECT_EQ(validate_chunk_geometry(kMaxChunkLines, kMaxQueueDepth), nullptr);

  EXPECT_NE(validate_chunk_geometry(0, 4), nullptr);   // zero chunk
  EXPECT_NE(validate_chunk_geometry(-5, 4), nullptr);
  EXPECT_NE(validate_chunk_geometry(kMaxChunkLines + 1, 4), nullptr);
  EXPECT_NE(validate_chunk_geometry(64, 0), nullptr);  // no pipeline slots
  EXPECT_NE(validate_chunk_geometry(64, 2), nullptr);
  EXPECT_NE(validate_chunk_geometry(64, kMaxQueueDepth + 1), nullptr);
}

// --- ThreadPool wiring -------------------------------------------------------

TEST(PoolMetricsTest, TasksAndHelpsLandInTheRegistry) {
  MetricsRegistry reg;
  core::ThreadPool pool(2);
  pool.bind_metrics(reg, "pool.");
  std::atomic<int> ran{0};
  // Nested parallelism: outer tasks block in an inner parallel_tasks and
  // must HELP execute queued work — the helped_tasks counter is exactly
  // the help-while-waiting steals the pool's design note promises.
  pool.parallel_tasks(4, [&](int) {
    pool.parallel_tasks(8, [&](int) { ++ran; });
  });
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(reg.counter_value("pool.tasks_executed"), 4u + 32u);
  EXPECT_GT(reg.counter_value("pool.helped_tasks"), 0u);
}

}  // namespace
}  // namespace rif::runtime
