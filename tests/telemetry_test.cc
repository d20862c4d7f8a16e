// Tests of the distributed telemetry plane: the kTelemetry wire codec and
// its trust-boundary rejections, span-batch balance checking, flamegraph
// folding (hand-built spans, tracer extraction, Chrome-trace re-parsing),
// the metrics scraper's live NDJSON sink, histogram quantile summaries,
// the per-site log rate limiter, the coordinator-side telemetry collector
// (dedupe, rejection, clock alignment, idempotent metric merges), and one
// end-to-end service run whose unified trace carries per-worker pid lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/remote_worker.h"
#include "hsi/scene.h"
#include "obs/chrome_trace.h"
#include "obs/flamegraph.h"
#include "obs/metrics_scraper.h"
#include "obs/remote_telemetry.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "runtime/metrics.h"
#include "scp/wire.h"
#include "service/service.h"
#include "support/log.h"

namespace rif {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

// --- kTelemetry wire codec ---------------------------------------------------

scp::TelemetryBody sample_body() {
  scp::TelemetryBody body;
  body.job_id = 7;
  body.flush_index = 3;
  body.spans.push_back({"remote.screen_shard", 1000, 250, 7, 0.0, 'X'});
  body.spans.push_back({"remote.resend", 1200, 0, 7, 0.0, 'i'});
  body.spans.push_back({"remote.queue_depth", 1300, 0, -1, 4.5, 'C'});
  body.counters.emplace_back("tiles_screened", 12);
  body.counters.emplace_back("jobs", 1);
  body.gauges.emplace_back("utilization", 0, 0.75);
  body.gauges.emplace_back("peak_bytes", 1, 4096.0);
  scp::TelemetryHistogram h;
  h.name = "screen_seconds";
  h.count = 12;
  h.sum = 0.5;
  h.min = 0.01;
  h.max = 0.2;
  h.buckets.assign(scp::kTelemetryHistogramBuckets, 0);
  h.buckets[5] = 12;
  body.histograms.push_back(h);
  return body;
}

TEST(TelemetryCodecTest, RoundTripsSpansMetricsAndHistograms) {
  const scp::TelemetryBody body = sample_body();
  const auto decoded = scp::TelemetryBody::try_decode(body.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->job_id, 7);
  EXPECT_EQ(decoded->flush_index, 3u);
  ASSERT_EQ(decoded->spans.size(), 3u);
  EXPECT_EQ(decoded->spans[0].name, "remote.screen_shard");
  EXPECT_EQ(decoded->spans[0].ts_ns, 1000u);
  EXPECT_EQ(decoded->spans[0].dur_ns, 250u);
  EXPECT_EQ(decoded->spans[0].job, 7);
  EXPECT_EQ(decoded->spans[0].phase, 'X');
  EXPECT_EQ(decoded->spans[2].phase, 'C');
  EXPECT_DOUBLE_EQ(decoded->spans[2].value, 4.5);
  ASSERT_EQ(decoded->counters.size(), 2u);
  EXPECT_EQ(decoded->counters[0].first, "tiles_screened");
  EXPECT_EQ(decoded->counters[0].second, 12u);
  ASSERT_EQ(decoded->gauges.size(), 2u);
  EXPECT_EQ(std::get<1>(decoded->gauges[1]), 1);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  EXPECT_EQ(decoded->histograms[0].count, 12u);
  EXPECT_EQ(decoded->histograms[0].buckets.size(),
            scp::kTelemetryHistogramBuckets);
  EXPECT_EQ(decoded->histograms[0].buckets[5], 12u);
}

TEST(TelemetryCodecTest, RejectsTruncatedPayload) {
  std::vector<std::uint8_t> bytes = sample_body().encode();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(scp::TelemetryBody::try_decode(cut).has_value())
        << "decoded at " << keep << " bytes";
  }
}

TEST(TelemetryCodecTest, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = sample_body().encode();
  bytes.push_back(0);
  EXPECT_FALSE(scp::TelemetryBody::try_decode(bytes).has_value());
}

TEST(TelemetryCodecTest, RejectsBadPhaseAndBadGaugeKind) {
  scp::TelemetryBody body = sample_body();
  body.spans[0].phase = 'Q';
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());

  body = sample_body();
  std::get<1>(body.gauges[0]) = 9;  // only kSum(0)/kMax(1) exist
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());
}

TEST(TelemetryCodecTest, RejectsWrongHistogramBucketCount) {
  scp::TelemetryBody body = sample_body();
  body.histograms[0].buckets.resize(scp::kTelemetryHistogramBuckets - 1);
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());
}

TEST(TelemetryCodecTest, RejectsEmptyAndAbsurdNames) {
  scp::TelemetryBody body = sample_body();
  body.spans[0].name.clear();
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());

  body = sample_body();
  body.counters[0].first.assign(100000, 'x');
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());
}

TEST(TelemetryCodecTest, EnvelopeCarriesTelemetryKindButNotBeyond) {
  scp::WireEnvelope env;
  env.kind = scp::FrameKind::kTelemetry;
  env.src_node = 3;
  env.payload = sample_body().encode();
  const std::vector<std::uint8_t> frame = env.encode();
  const auto decoded = scp::WireEnvelope::try_decode(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, scp::FrameKind::kTelemetry);
  ASSERT_TRUE(scp::TelemetryBody::try_decode(decoded->payload).has_value());

  // One past the last kind must be rejected at the envelope boundary. The
  // kind byte is part of the checksummed region, so flip it AND re-encode
  // via a fresh envelope rather than patching bytes.
  scp::WireEnvelope bad = env;
  bad.kind = static_cast<scp::FrameKind>(
      static_cast<int>(scp::FrameKind::kTelemetry) + 1);
  EXPECT_FALSE(scp::WireEnvelope::try_decode(bad.encode()).has_value());
}

// --- span-batch balance gate -------------------------------------------------

TEST(SpanBatchCheckTest, AcceptsBalancedAndCompleteEvents) {
  std::string error;
  EXPECT_TRUE(obs::check_span_batch(
      {{"a", 'B'}, {"b", 'B'}, {"b", 'E'}, {"a", 'E'}, {"x", 'X'},
       {"t", 'i'}, {"c", 'C'}},
      error))
      << error;
}

TEST(SpanBatchCheckTest, RejectsUnbalancedBatches) {
  std::string error;
  // E with no open B.
  EXPECT_FALSE(obs::check_span_batch({{"a", 'E'}}, error));
  // E crossing a different open span.
  EXPECT_FALSE(
      obs::check_span_batch({{"a", 'B'}, {"b", 'E'}, {"a", 'E'}}, error));
  // B left open at batch end.
  EXPECT_FALSE(obs::check_span_batch({{"a", 'B'}}, error));
  // Unknown phase.
  EXPECT_FALSE(obs::check_span_batch({{"a", 'Z'}}, error));
}

// --- flamegraph folding ------------------------------------------------------

TEST(FlamegraphTest, FoldsSelfAndTotalTime) {
  std::vector<obs::FlameSpan> spans;
  spans.push_back({"parent", 0.0, 100.0, 1});
  spans.push_back({"child", 10.0, 30.0, 1});
  spans.push_back({"child", 50.0, 20.0, 1});
  spans.push_back({"other", 0.0, 40.0, 2});  // different track: no shadow
  const obs::FlameTable table = obs::fold_spans(std::move(spans));

  const obs::FlameRow* parent = table.find("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->count, 1u);
  EXPECT_NEAR(parent->total_us, 100.0, 1e-9);
  EXPECT_NEAR(parent->self_us, 50.0, 1e-9);  // 100 - 30 - 20

  const obs::FlameRow* child = table.find("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 2u);
  EXPECT_NEAR(child->total_us, 50.0, 1e-9);
  EXPECT_NEAR(child->self_us, 50.0, 1e-9);

  const obs::FlameRow* other = table.find("other");
  ASSERT_NE(other, nullptr);
  EXPECT_NEAR(other->self_us, 40.0, 1e-9);

  // Time conservation: sum of self == sum of track root durations.
  double self_sum = 0.0;
  for (const obs::FlameRow& row : table.rows) self_sum += row.self_us;
  EXPECT_NEAR(self_sum, 140.0, 1e-9);

  // JSON shape parses with the in-repo parser.
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::parse_json(table.to_json(), v, err)) << err;
  const obs::JsonValue* rows = v.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->array.size(), table.rows.size());
}

TEST(FlamegraphTest, TracerAndChromeTraceFoldsAgree) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);
  {
    RIF_TRACE_SPAN("outer");
    RIF_TRACE_SPAN("inner");
  }
  {
    RIF_TRACE_SPAN("outer");
  }
  tracer.set_enabled(false);

  const obs::FlameTable from_tracer = obs::fold_tracer(tracer);
  const obs::FlameRow* outer = from_tracer.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);

  const std::string path = temp_path("rif_flame_agree.json");
  ASSERT_TRUE(obs::write_chrome_trace(path, tracer));
  std::string err;
  const auto from_file = obs::fold_chrome_trace_file(path, err);
  ASSERT_TRUE(from_file.has_value()) << err;
  for (const obs::FlameRow& row : from_tracer.rows) {
    const obs::FlameRow* again = from_file->find(row.name);
    ASSERT_NE(again, nullptr) << row.name;
    EXPECT_EQ(again->count, row.count) << row.name;
    EXPECT_NEAR(again->total_us, row.total_us,
                std::max(row.total_us * 0.01, 1.0))
        << row.name;
  }
  std::remove(path.c_str());
  tracer.clear();
}

// --- scraper live sink and quantile summaries --------------------------------

TEST(MetricsStreamTest, OnScrapeEmitsOneParseableLinePerScrape) {
  runtime::MetricsRegistry reg;
  obs::MetricsScraper::Config cfg;
  cfg.period_seconds = 3600.0;  // only the explicit scrapes below fire
  obs::MetricsScraper scraper(reg, cfg);
  std::vector<std::string> lines;
  scraper.set_on_scrape([&lines](const std::string& line) {
    lines.push_back(line);
  });
  reg.counter("a").add(1);
  scraper.scrape_now();
  reg.counter("a").add(2);
  reg.histogram("lat").observe(0.01);
  scraper.scrape_now();
  scraper.scrape_now();
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parse_json(line, v, err)) << err << " in " << line;
    EXPECT_NE(v.find("counters"), nullptr);
  }
  // Deltas: second line saw the counter move by 2.
  EXPECT_NE(lines[1].find("\"a\""), std::string::npos);
  // The histogram summary carries bucket-resolution quantiles.
  EXPECT_NE(lines[1].find("\"p50\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"p95\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"p99\""), std::string::npos);
}

TEST(MetricsQuantileTest, SummaryAndJsonCarryOrderedQuantiles) {
  runtime::MetricsRegistry reg;
  runtime::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 90; ++i) h.observe(0.001);
  for (int i = 0; i < 9; ++i) h.observe(0.1);
  h.observe(10.0);

  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p99, 0.1);  // rank 99 of 100 is the last 0.1s observation
  EXPECT_GE(h.quantile(1.0), 10.0);  // the max lands in the 10s bucket

  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::parse_json(reg.to_json(), v, err)) << err;
  const obs::JsonValue* hist = v.find("histograms");
  ASSERT_NE(hist, nullptr);
  const obs::JsonValue* lat = hist->find("lat");
  ASSERT_NE(lat, nullptr);
  const obs::JsonValue* jp95 = lat->find("p95");
  ASSERT_NE(jp95, nullptr);
  EXPECT_DOUBLE_EQ(jp95->number, p95);
  EXPECT_NE(lat->find("p50"), nullptr);
  EXPECT_NE(lat->find("p99"), nullptr);
}

TEST(MetricsInstallTest, InstallHistogramIsIdempotentOverwrite) {
  runtime::MetricsRegistry reg;
  std::vector<std::uint64_t> buckets(
      static_cast<std::size_t>(runtime::Histogram::kBuckets), 0);
  buckets[3] = 5;
  reg.install_histogram("shipped", 5, 0.25, 0.01, 0.1, buckets);
  reg.install_histogram("shipped", 5, 0.25, 0.01, 0.1, buckets);  // re-ship
  const runtime::Histogram* h = reg.find_histogram("shipped");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.25);
  EXPECT_EQ(h->bucket(3), 5u);
  EXPECT_DOUBLE_EQ(h->min(), 0.01);
  EXPECT_DOUBLE_EQ(h->max(), 0.1);
}

// --- trace_check: counters and pid lanes -------------------------------------

TEST(TraceCheckTest, CountersNeedNumericValueAndPidsAreTallied) {
  obs::ChromeTraceWriter writer;
  writer.add({"spanA", 'B', 1.0, -1.0, 1, 1, ""});
  writer.add({"spanA", 'E', 5.0, -1.0, 1, 1, ""});
  writer.add({"q", 'C', 2.0, -1.0, 2, 1, "\"value\": 3.5"});
  writer.add({"work", 'X', 1.0, 2.0, 101, 1, ""});
  const obs::TraceCheckResult ok = obs::check_chrome_trace(writer.to_json());
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.pids, 3u);
  EXPECT_EQ(ok.counters, 1u);
  EXPECT_EQ(ok.spans, 2u);  // the B/E pair and the X event

  obs::ChromeTraceWriter bad;
  bad.add({"q", 'C', 2.0, -1.0, 1, 1, "\"note\": \"no value\""});
  const obs::TraceCheckResult r = obs::check_chrome_trace(bad.to_json());
  EXPECT_FALSE(r.ok);
}

// --- log rate limiter --------------------------------------------------------

TEST(LogRateLimiterTest, AllowsOncePerPeriodAndCountsSuppressed) {
  LogRateLimiter limiter;
  std::uint64_t suppressed = 99;
  EXPECT_TRUE(limiter.allow(3600.0, &suppressed));
  EXPECT_EQ(suppressed, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(limiter.allow(3600.0, &suppressed));
  }

  LogRateLimiter free_limiter;
  EXPECT_TRUE(free_limiter.allow(0.0, &suppressed));
  EXPECT_TRUE(free_limiter.allow(0.0, &suppressed));
}

// --- RemoteTelemetryCollector ------------------------------------------------

TEST(RemoteTelemetryTest, DedupesByFlushIndexAndRejectsUnbalanced) {
  obs::RemoteTelemetryCollector collector;
  scp::TelemetryBody body;
  body.job_id = 4;
  body.flush_index = 1;
  body.spans.push_back({"remote.job", 100, 50, 4, 0.0, 'X'});
  EXPECT_TRUE(collector.on_batch(9, body));
  EXPECT_EQ(collector.spans(), 1u);

  // Re-shipment of the same flush index: dropped, counted, not re-merged.
  EXPECT_FALSE(collector.on_batch(9, body));
  EXPECT_EQ(collector.duplicates(), 1u);
  EXPECT_EQ(collector.spans(), 1u);

  // Unbalanced B without E: the whole batch is rejected.
  scp::TelemetryBody bad;
  bad.flush_index = 2;
  bad.spans.push_back({"open", 200, 0, 4, 0.0, 'B'});
  EXPECT_FALSE(collector.on_batch(9, bad));
  EXPECT_EQ(collector.rejected(), 1u);
  EXPECT_EQ(collector.spans(), 1u);

  const std::vector<cluster::NodeId> nodes = collector.nodes_with_job(4);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 9);
  EXPECT_TRUE(collector.nodes_with_job(5).empty());
}

// The service's telemetry barrier must wait for the END-of-job flush (the
// one carrying scp::kJobSpanName), not any mid-job periodic batch that
// merely mentions the job — otherwise the report snapshots a half lane.
TEST(RemoteTelemetryTest, JobEndRequiresTheWholeJobSpan) {
  obs::RemoteTelemetryCollector collector;

  // Mid-job periodic flush: one shard span tagged with the job.
  scp::TelemetryBody mid;
  mid.job_id = 7;
  mid.flush_index = 1;
  mid.spans.push_back({"remote.screen_shard", 100, 40, 7, 0.0, 'X'});
  EXPECT_TRUE(collector.on_batch(3, mid));
  EXPECT_EQ(collector.nodes_with_job(7).size(), 1u);
  EXPECT_TRUE(collector.nodes_with_job_end(7).empty());

  // Job-end force flush: carries the whole-job span.
  scp::TelemetryBody fin;
  fin.job_id = 7;
  fin.flush_index = 2;
  fin.spans.push_back({scp::kJobSpanName, 80, 200, 7, 0.0, 'X'});
  EXPECT_TRUE(collector.on_batch(3, fin));
  const std::vector<cluster::NodeId> ended = collector.nodes_with_job_end(7);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_EQ(ended[0], 3);
  EXPECT_TRUE(collector.nodes_with_job_end(8).empty());
}

TEST(RemoteTelemetryTest, NormalizesBalancedBeginEndToCompleteSpans) {
  obs::RemoteTelemetryCollector collector;
  scp::TelemetryBody body;
  body.flush_index = 1;
  body.spans.push_back({"outer", 1000, 0, 2, 0.0, 'B'});
  body.spans.push_back({"inner", 1200, 0, 2, 0.0, 'B'});
  body.spans.push_back({"inner", 1700, 0, 2, 0.0, 'E'});
  body.spans.push_back({"outer", 2000, 0, 2, 0.0, 'E'});
  ASSERT_TRUE(collector.on_batch(3, body));

  const std::vector<obs::FlameSpan> spans = collector.flame_spans(0);
  ASSERT_EQ(spans.size(), 2u);
  const obs::FlameTable table = obs::fold_spans(spans);
  const obs::FlameRow* outer = table.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_NEAR(outer->total_us, 1.0, 1e-9);   // 1000ns
  EXPECT_NEAR(outer->self_us, 0.5, 1e-9);    // minus inner's 500ns
}

TEST(RemoteTelemetryTest, ClockOffsetShiftsWorkerSpansOntoHostAxis) {
  obs::RemoteTelemetryCollector collector;
  scp::TelemetryBody body;
  body.flush_index = 1;
  // Worker clock runs 5us AHEAD of the coordinator's.
  body.spans.push_back({"w", 10000, 1000, 1, 0.0, 'X'});
  ASSERT_TRUE(collector.on_batch(2, body));
  collector.set_clock_offset(2, 5000);
  EXPECT_EQ(collector.clock_offset_ns(2), 5000);

  // coordinator time = worker_ts - offset; epoch 0 => 5000ns = 5us.
  const std::vector<obs::FlameSpan> spans = collector.flame_spans(0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_NEAR(spans[0].ts_us, 5.0, 1e-9);
  EXPECT_NEAR(spans[0].dur_us, 1.0, 1e-9);
}

TEST(RemoteTelemetryTest, MergesMetricsIdempotentlyUnderNodePrefix) {
  obs::RemoteTelemetryCollector collector;
  scp::TelemetryBody body;
  body.flush_index = 1;
  body.counters.emplace_back("tiles", 10);
  body.gauges.emplace_back("util", 0, 0.5);
  scp::TelemetryHistogram h;
  h.name = "screen_seconds";
  h.count = 3;
  h.sum = 0.3;
  h.min = 0.05;
  h.max = 0.2;
  h.buckets.assign(scp::kTelemetryHistogramBuckets, 0);
  h.buckets[2] = 3;
  body.histograms.push_back(h);
  ASSERT_TRUE(collector.on_batch(5, body));

  runtime::MetricsRegistry reg;
  collector.merge_metrics_into(reg);
  collector.merge_metrics_into(reg);  // same shipped state: no double count
  EXPECT_EQ(reg.counter_value("remote.worker.5.tiles"), 10u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("remote.worker.5.util"), 0.5);
  const runtime::Histogram* merged =
      reg.find_histogram("remote.worker.5.screen_seconds");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 3u);

  // A later shipment with larger totals advances the counter by the delta.
  scp::TelemetryBody next;
  next.flush_index = 2;
  next.counters.emplace_back("tiles", 14);
  ASSERT_TRUE(collector.on_batch(5, next));
  collector.merge_metrics_into(reg);
  EXPECT_EQ(reg.counter_value("remote.worker.5.tiles"), 14u);
}

// --- shipped log records -----------------------------------------------------

TEST(TelemetryCodecTest, RoundTripsLogRecords) {
  scp::TelemetryBody body = sample_body();
  body.logs.push_back({2, "worker", "job 7 start (32x32x12)", 7, 5000});
  body.logs.push_back({3, "serve", "resend requested", -1, 6000});
  const auto decoded = scp::TelemetryBody::try_decode(body.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->logs.size(), 2u);
  EXPECT_EQ(decoded->logs[0].level, 2);
  EXPECT_EQ(decoded->logs[0].component, "worker");
  EXPECT_EQ(decoded->logs[0].message, "job 7 start (32x32x12)");
  EXPECT_EQ(decoded->logs[0].job, 7);
  EXPECT_EQ(decoded->logs[0].ts_ns, 5000u);
  EXPECT_EQ(decoded->logs[1].level, 3);
  EXPECT_EQ(decoded->logs[1].job, -1);
}

TEST(TelemetryCodecTest, RejectsHostileLogSections) {
  // Truncation anywhere inside the logs section fails whole, like every
  // other section.
  scp::TelemetryBody body = sample_body();
  body.logs.push_back({2, "worker", "hello", 1, 100});
  const std::vector<std::uint8_t> bytes = body.encode();
  const std::vector<std::uint8_t> base = sample_body().encode();
  for (std::size_t keep = base.size(); keep < bytes.size(); ++keep) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(scp::TelemetryBody::try_decode(cut).has_value())
        << "decoded at " << keep << " bytes";
  }

  // A level outside rif::LogLevel's range is hostile.
  body = sample_body();
  body.logs.push_back({9, "worker", "bad level", 1, 100});
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());

  // A message past the wire bound is hostile (memory-bomb defence).
  body = sample_body();
  body.logs.push_back({2, "worker", std::string(513, 'x'), 1, 100});
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());

  // As is a record count past the batch bound.
  body = sample_body();
  for (int i = 0; i < 1025; ++i) {
    body.logs.push_back({2, "worker", "spam", 1, 100});
  }
  EXPECT_FALSE(scp::TelemetryBody::try_decode(body.encode()).has_value());
}

TEST(RemoteTelemetryTest, ForwardsLogsOnlyFromAcceptedBatches) {
  obs::RemoteTelemetryCollector collector;
  std::vector<std::pair<cluster::NodeId, std::string>> forwarded;
  collector.set_log_sink(
      [&forwarded](cluster::NodeId node, const scp::TelemetryLog& l) {
        forwarded.emplace_back(node, l.message);
      });

  scp::TelemetryBody body;
  body.flush_index = 1;
  body.logs.push_back({2, "worker", "leased in", -1, 100});
  ASSERT_TRUE(collector.on_batch(4, body));
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].first, 4);
  EXPECT_EQ(forwarded[0].second, "leased in");
  EXPECT_EQ(collector.log_records(), 1u);

  // A re-shipment (duplicate flush index) must not double-log.
  EXPECT_FALSE(collector.on_batch(4, body));
  EXPECT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(collector.log_records(), 1u);

  // An unbalanced span batch is rejected whole — logs riding it included.
  scp::TelemetryBody bad;
  bad.flush_index = 2;
  bad.spans.push_back({"remote.screen_shard", 100, 0, 1, 0.0, 'B'});
  bad.logs.push_back({2, "worker", "should not appear", -1, 200});
  EXPECT_FALSE(collector.on_batch(4, bad));
  EXPECT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(collector.log_records(), 1u);
}

// --- cluster-wide histogram aggregation --------------------------------------

scp::TelemetryHistogram histogram_of(const runtime::Histogram& h,
                                     const std::string& name) {
  scp::TelemetryHistogram out;
  out.name = name;
  out.count = h.count();
  out.sum = h.sum();
  out.min = h.min();
  out.max = h.max();
  out.buckets.reserve(scp::kTelemetryHistogramBuckets);
  for (int b = 0; b < runtime::Histogram::kBuckets; ++b) {
    out.buckets.push_back(h.bucket(b));
  }
  return out;
}

TEST(RemoteTelemetryTest, ClusterHistogramQuantilesMatchAllSamples) {
  // Three workers observe disjoint latency populations; the merged
  // remote.cluster series must answer quantiles exactly as a single
  // histogram that saw every observation (bucket sums commute with the
  // bucket-edge quantile estimate).
  runtime::MetricsRegistry ref;
  runtime::Histogram& all = ref.histogram("all");
  obs::RemoteTelemetryCollector collector;
  std::uint64_t seed = 42;
  for (int worker = 0; worker < 3; ++worker) {
    runtime::MetricsRegistry local;
    runtime::Histogram& mine = local.histogram("screen_seconds");
    for (int i = 0; i < 200; ++i) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      // Spread across several log2 buckets, different range per worker.
      const double v = (1.0 + static_cast<double>(seed % 997)) * 1e-5 *
                       static_cast<double>(1 << (2 * worker));
      mine.observe(v);
      all.observe(v);
    }
    scp::TelemetryBody body;
    body.flush_index = 1;
    body.histograms.push_back(histogram_of(mine, "screen_seconds"));
    ASSERT_TRUE(
        collector.on_batch(static_cast<cluster::NodeId>(10 + worker), body));
  }

  runtime::MetricsRegistry target;
  collector.merge_metrics_into(target);
  collector.merge_metrics_into(target);  // idempotent like the per-node series
  const runtime::Histogram* merged =
      target.find_histogram("remote.cluster.screen_seconds");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), all.count());
  EXPECT_DOUBLE_EQ(merged->sum(), all.sum());
  EXPECT_DOUBLE_EQ(merged->min(), all.min());
  EXPECT_DOUBLE_EQ(merged->max(), all.max());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(merged->quantile(q), all.quantile(q)) << "q=" << q;
  }
  // The per-node series stay alongside the cluster roll-up.
  EXPECT_NE(target.find_histogram("remote.worker.10.screen_seconds"), nullptr);
  EXPECT_NE(target.find_histogram("remote.worker.12.screen_seconds"), nullptr);
}

// --- end to end: unified trace from a real service run -----------------------

TEST(TelemetryEndToEndTest, ServiceRunShipsWorkerLanesIntoOneTrace) {
  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  tracer.set_enabled(true);

  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 12;
  scene_cfg.seed = 33;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  const std::string stream_path = temp_path("rif_telemetry_e2e.ndjson");
  service::ServiceConfig cfg;
  cfg.worker_nodes = 1;
  cfg.execution_threads = 2;
  cfg.remote_workers = 2;
  cfg.remote_spawn_local = true;
  cfg.scrape_period_seconds = 0.02;
  cfg.metrics_stream_path = stream_path;
  service::FusionService service(cfg);

  service::JobRequest r;
  r.tenant = "edge";
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  r.config.workers = 3;
  r.config.tiles_per_worker = 2;
  const service::SubmitResult submitted = service.submit(std::move(r));
  ASSERT_TRUE(submitted.accepted());
  const service::ServiceReport report = service.run();
  tracer.set_enabled(false);
  ASSERT_TRUE(report.all_completed);
  ASSERT_EQ(report.remote_jobs, 1);

  // Every worker that served the job shipped at least one span, and the
  // collector surfaces the ingest health.
  const obs::RemoteTelemetryCollector* telemetry = service.remote_telemetry();
  ASSERT_NE(telemetry, nullptr);
  EXPECT_GT(telemetry->batches(), 0u);
  EXPECT_GT(telemetry->spans(), 0u);
  EXPECT_EQ(telemetry->rejected(), 0u);
  EXPECT_FALSE(telemetry->nodes_with_job(submitted.id).empty());
  // The barrier waited for the end-of-job flush, so the whole-job span
  // (not just a mid-job periodic batch) is in the lane.
  EXPECT_FALSE(telemetry->nodes_with_job_end(submitted.id).empty());

  // The unified trace validates and carries the coordinator lane plus one
  // pid lane per worker.
  const std::string trace_path = temp_path("rif_telemetry_e2e_trace.json");
  ASSERT_TRUE(obs::write_unified_trace(trace_path, tracer, *telemetry));
  const obs::TraceCheckResult tc = obs::check_chrome_trace_file(trace_path);
  ASSERT_TRUE(tc.ok) << tc.error;
  EXPECT_GE(tc.pids, 3u);

  // The report's flamegraph folds host and remote stages together.
  EXPECT_NE(report.flamegraph.find("remote.job"), nullptr);
  // service_run is still open at report time; remote_execute has closed.
  EXPECT_NE(report.flamegraph.find("remote_execute"), nullptr);
  EXPECT_FALSE(report.flamegraph_json.empty());

  // The live stream was written during the run; once telemetry merged, the
  // per-node series appear under their prefixes.
  std::ifstream in(stream_path);
  std::size_t lines = 0;
  bool saw_remote = false;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parse_json(line, v, err)) << err;
    if (line.find("remote.worker.") != std::string::npos) saw_remote = true;
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_TRUE(saw_remote);

  std::remove(trace_path.c_str());
  std::remove(stream_path.c_str());
  tracer.clear();
}

}  // namespace
}  // namespace rif
