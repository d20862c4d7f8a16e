// Tests of the observability subsystem: SpanTracer emission and export,
// the Chrome-trace JSON checker, the MetricsScraper timeline, and the
// leveled logger's job context.
//
// SpanTracer is a process-wide singleton, so every test that emits puts it
// back to (disabled, cleared) — emission is quiescent once disabled, which
// is exactly what clear() requires.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics_scraper.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "runtime/metrics.h"
#include "support/log.h"

namespace rif::obs {
namespace {

namespace fs = std::filesystem;

SpanTracer& tracer() { return SpanTracer::instance(); }

void reset_tracer() {
  tracer().set_enabled(false);
  tracer().clear();
}

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

// --- SpanTracer --------------------------------------------------------------

TEST(SpanTracerTest, RecordsSpansInEmissionOrder) {
  reset_tracer();
  tracer().set_enabled(true);
  tracer().begin("outer", 7);
  tracer().begin("inner", 7);
  tracer().instant("tick", 7);
  tracer().counter("queue", 3.0, 7);
  tracer().end("inner", 7);
  tracer().end("outer", 7);
  tracer().set_enabled(false);

  const std::vector<SpanEvent> events = tracer().collect();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[1].phase, Phase::kBegin);
  EXPECT_EQ(events[2].phase, Phase::kInstant);
  EXPECT_EQ(events[3].phase, Phase::kCounter);
  EXPECT_DOUBLE_EQ(events[3].value, 3.0);
  EXPECT_EQ(events[4].phase, Phase::kEnd);
  EXPECT_STREQ(events[5].name, "outer");
  for (const auto& e : events) {
    EXPECT_EQ(e.job, 7);
    EXPECT_EQ(e.timeline, Timeline::kWall);
  }
  // Timestamps are non-decreasing within the thread.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
  reset_tracer();
}

TEST(SpanTracerTest, DisabledEmitsNothingExceptBalancingEnds) {
  reset_tracer();
  tracer().begin("never", 1);
  tracer().instant("never", 1);
  tracer().counter("never", 1.0, 1);
  EXPECT_TRUE(tracer().collect().empty());

  // A span opened while enabled still closes after tracing is flipped off:
  // the exported trace must stay balanced.
  tracer().set_enabled(true);
  tracer().begin("cut_off", 1);
  tracer().set_enabled(false);
  tracer().end("cut_off", 1);
  const auto events = tracer().collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[1].phase, Phase::kEnd);
  reset_tracer();
}

TEST(SpanTracerTest, ScopedSpanClosesAcrossDisable) {
  reset_tracer();
  tracer().set_enabled(true);
  {
    ScopedSpan span("flip", 2);
    tracer().set_enabled(false);
  }
  const auto events = tracer().collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].phase, Phase::kEnd);
  reset_tracer();
}

TEST(SpanTracerTest, JobScopeNestsAndRestores) {
  EXPECT_EQ(current_job(), kNoJob);
  {
    JobScope outer(11);
    EXPECT_EQ(current_job(), 11);
    EXPECT_EQ(log_job_context(), 11);
    {
      JobScope inner(12);
      EXPECT_EQ(current_job(), 12);
      EXPECT_EQ(log_job_context(), 12);
    }
    EXPECT_EQ(current_job(), 11);
  }
  EXPECT_EQ(current_job(), kNoJob);
  EXPECT_EQ(log_job_context(), kLogNoJob);
}

TEST(SpanTracerTest, SpansDefaultToTheAmbientJob) {
  reset_tracer();
  tracer().set_enabled(true);
  {
    JobScope scope(42);
    RIF_TRACE_SPAN("scoped");
  }
  tracer().set_enabled(false);
  const auto events = tracer().collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].job, 42);
  EXPECT_EQ(events[1].job, 42);
  reset_tracer();
}

TEST(SpanTracerTest, CollectMergesThreadsAndDisabledTracingIsCheap) {
  reset_tracer();
  tracer().set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i) {
        ScopedSpan span("worker", t);
      }
    });
  }
  for (auto& w : workers) w.join();
  tracer().set_enabled(false);
  const auto events = tracer().collect();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpans * 2));
  reset_tracer();

  // Overhead guard for the tracing-OFF path: a disabled RIF_TRACE_SPAN is
  // one relaxed atomic load. The bound is deliberately loose (500ns/site
  // on average over a million sites) — it exists to catch an accidental
  // allocation or lock on the disabled path, not to benchmark.
  constexpr int kIters = 1000000;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      RIF_TRACE_SPAN("disabled_site");
    }
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
  }
  EXPECT_LT(best / kIters, 500e-9);
  EXPECT_TRUE(tracer().collect().empty());
}

// --- Chrome-trace export and the in-repo checker -----------------------------

TEST(ChromeTraceTest, ExportedTraceValidatesAndCountsSpans) {
  reset_tracer();
  tracer().set_enabled(true);
  tracer().set_job_tenant(5, "alpha");
  {
    JobScope scope(5);
    RIF_TRACE_SPAN("phase");
    {
      RIF_TRACE_SPAN("stage");
      RIF_TRACE_INSTANT("mark");
      RIF_TRACE_COUNTER("depth", 2.0);
    }
    { RIF_TRACE_SPAN("stage"); }
  }
  // Virtual-timeline lifecycle lane for the same job.
  tracer().virtual_begin("queue_wait", 5, 1000, 5);
  tracer().virtual_end("queue_wait", 5, 2500, 5);
  tracer().set_enabled(false);

  const std::string path = temp_path("rif_obs_trace.json");
  ASSERT_TRUE(write_chrome_trace(path));
  const TraceCheckResult check = check_chrome_trace_file(path);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.span_counts.at("phase"), 1u);
  EXPECT_EQ(check.span_counts.at("stage"), 2u);
  EXPECT_EQ(check.span_counts.at("queue_wait"), 1u);
  EXPECT_GE(check.spans, 4u);
  // Two timelines: the wall track and the job's virtual track.
  EXPECT_GE(check.tracks, 2u);

  // The export carries tenant attribution for the registered job.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"tenant\": \"alpha\""), std::string::npos);
  fs::remove(path);
  reset_tracer();
}

TEST(TraceCheckTest, AcceptsMinimalValidTrace) {
  const std::string doc =
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"a\", \"ph\": \"E\", \"ts\": 2, \"pid\": 1, \"tid\": 1}"
      "]}";
  const TraceCheckResult check = check_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.spans, 1u);
}

TEST(TraceCheckTest, RejectsUnmatchedBegin) {
  const std::string doc =
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1, \"pid\": 1, \"tid\": 1}"
      "]}";
  EXPECT_FALSE(check_chrome_trace(doc).ok);
}

TEST(TraceCheckTest, RejectsCrossedSpans) {
  // B(a) B(b) E(a) E(b) on one track violates strict nesting.
  const std::string doc =
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"b\", \"ph\": \"B\", \"ts\": 2, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"a\", \"ph\": \"E\", \"ts\": 3, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"b\", \"ph\": \"E\", \"ts\": 4, \"pid\": 1, \"tid\": 1}"
      "]}";
  EXPECT_FALSE(check_chrome_trace(doc).ok);
}

TEST(TraceCheckTest, SeparateTracksNestIndependently) {
  // The same interleaving is fine when the spans live on different tids.
  const std::string doc =
      "{\"traceEvents\": ["
      "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"b\", \"ph\": \"B\", \"ts\": 2, \"pid\": 1, \"tid\": 2},"
      "{\"name\": \"a\", \"ph\": \"E\", \"ts\": 3, \"pid\": 1, \"tid\": 1},"
      "{\"name\": \"b\", \"ph\": \"E\", \"ts\": 4, \"pid\": 1, \"tid\": 2}"
      "]}";
  const TraceCheckResult check = check_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.tracks, 2u);
}

TEST(TraceCheckTest, RejectsMalformedJsonAndSchema) {
  EXPECT_FALSE(check_chrome_trace("{\"traceEvents\": [").ok);
  EXPECT_FALSE(check_chrome_trace("not json at all").ok);
  EXPECT_FALSE(check_chrome_trace("{}").ok);  // no traceEvents
  // ph must be a known phase letter.
  EXPECT_FALSE(check_chrome_trace(
                   "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"Q\", "
                   "\"ts\": 1, \"pid\": 1, \"tid\": 1}]}")
                   .ok);
  // Events must carry numeric ts.
  EXPECT_FALSE(check_chrome_trace(
                   "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"i\", "
                   "\"ts\": \"x\", \"pid\": 1, \"tid\": 1}]}")
                   .ok);
}

TEST(JsonParserTest, ParsesEscapesNumbersAndStructure) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parse_json(
      "{\"s\": \"a\\\"b\\n\\u0041\", \"n\": -1.5e2, \"l\": [1, true, null]}",
      v, err))
      << err;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("s")->string, "a\"b\nA");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -150.0);
  ASSERT_EQ(v.find("l")->array.size(), 3u);
  EXPECT_TRUE(v.find("l")->array[1].boolean);
  EXPECT_EQ(v.find("l")->array[2].kind, JsonValue::Kind::kNull);

  // Trailing garbage and truncation are syntax errors, not silent success.
  EXPECT_FALSE(parse_json("{} extra", v, err));
  EXPECT_FALSE(parse_json("{\"a\": 1", v, err));
  EXPECT_FALSE(parse_json("", v, err));
}

// --- MetricsScraper ----------------------------------------------------------

TEST(MetricsScraperTest, DeltasTrackIncrementsBetweenScrapes) {
  runtime::MetricsRegistry reg;
  MetricsScraper::Config cfg;
  cfg.period_seconds = 3600.0;  // periodic thread never fires in-test
  MetricsScraper scraper(reg, cfg);

  reg.counter("events").add(5);
  reg.gauge("level").set(2.0);
  reg.histogram("lat").observe(0.001);
  scraper.scrape_now();
  reg.counter("events").add(7);
  reg.gauge("level").set(1.5);
  reg.histogram("lat").observe(0.002);
  reg.histogram("lat").observe(0.004);
  scraper.scrape_now();

  const auto samples = scraper.samples();
  ASSERT_EQ(samples.size(), 2u);
  // First scrape: deltas equal raw values (previous = empty).
  EXPECT_EQ(samples[0].values.counters.at("events"), 5u);
  EXPECT_EQ(samples[0].counter_deltas.at("events"), 5u);
  // Second scrape: raw totals plus movement since the first.
  EXPECT_EQ(samples[1].values.counters.at("events"), 12u);
  EXPECT_EQ(samples[1].counter_deltas.at("events"), 7u);
  EXPECT_DOUBLE_EQ(samples[1].gauge_deltas.at("level"), -0.5);
  EXPECT_EQ(samples[1].histogram_count_deltas.at("lat"), 2u);
  EXPECT_GT(samples[1].histogram_sum_deltas.at("lat"), 0.0);
  EXPECT_GE(samples[1].t_seconds, samples[0].t_seconds);
}

TEST(MetricsScraperTest, DeltasSumToTotalsUnderConcurrentWriters) {
  runtime::MetricsRegistry reg;
  MetricsScraper::Config cfg;
  cfg.period_seconds = 0.0005;
  MetricsScraper scraper(reg, cfg);
  scraper.start();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.counter("work").add(1);
        if (i % 64 == 0) reg.histogram("lat").observe(1e-5);
      }
    });
  }
  for (auto& w : writers) w.join();
  scraper.stop();

  const auto samples = scraper.samples();
  ASSERT_GE(samples.size(), 2u);  // immediate start scrape + final stop scrape
  // Deltas are computed against the immediately preceding scrape, so they
  // telescope: the sum of increments is exactly the final total, no matter
  // how the scrapes raced the writers.
  std::uint64_t delta_sum = 0;
  for (const auto& s : samples) {
    const auto it = s.counter_deltas.find("work");
    if (it != s.counter_deltas.end()) delta_sum += it->second;
  }
  EXPECT_EQ(delta_sum, kThreads * kPerThread);
  EXPECT_EQ(samples.back().values.counters.at("work"), kThreads * kPerThread);
}

TEST(MetricsScraperTest, TimelineJsonParsesWithSamplesAndDeltas) {
  runtime::MetricsRegistry reg;
  MetricsScraper::Config cfg;
  cfg.period_seconds = 3600.0;
  MetricsScraper scraper(reg, cfg);
  scraper.set_derive([](runtime::MetricsRegistry& r) {
    r.gauge("derived").set(r.gauge_value("base") * 2.0);
  });
  for (int i = 0; i < 3; ++i) {
    reg.gauge("base").set(i + 1.0);
    reg.counter("ticks").add(1);
    scraper.scrape_now();
  }

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(parse_json(scraper.timeline_json(), doc, err)) << err;
  const JsonValue* samples = doc.find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array.size(), 3u);
  // The derive hook ran on every scrape: derived = 2 * base, per sample.
  for (std::size_t i = 0; i < 3; ++i) {
    const JsonValue* gauges = samples->array[i].find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("derived")->find("v")->number,
                     2.0 * (static_cast<double>(i) + 1.0));
    const JsonValue* counters = samples->array[i].find("counters");
    EXPECT_DOUBLE_EQ(counters->find("ticks")->find("d")->number, 1.0);
  }

  const std::string path = temp_path("rif_obs_timeline.json");
  ASSERT_TRUE(scraper.write_timeline(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, scraper.timeline_json());
  fs::remove(path);
}

TEST(MetricsScraperTest, RingEvictsOldestButKeepsDeltasValid) {
  runtime::MetricsRegistry reg;
  MetricsScraper::Config cfg;
  cfg.period_seconds = 3600.0;
  cfg.max_samples = 4;
  MetricsScraper scraper(reg, cfg);
  for (int i = 0; i < 10; ++i) {
    reg.counter("n").add(1);
    scraper.scrape_now();
  }
  const auto samples = scraper.samples();
  ASSERT_EQ(samples.size(), 4u);
  // The survivors are the most recent scrapes, each with the delta it was
  // born with (1 per scrape) — eviction never rewrites history.
  EXPECT_EQ(samples.back().values.counters.at("n"), 10u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.counter_deltas.at("n"), 1u);
  }
}

// --- leveled logging ---------------------------------------------------------

TEST(LogTest, ParsesLevelsCaseInsensitively) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_TRUE(parse_log_level("trace", &level));
  EXPECT_EQ(level, LogLevel::kTrace);
  EXPECT_TRUE(parse_log_level("DEBUG", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("Info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(parse_log_level("shout", &level));
}

TEST(LogTest, JobContextIsPerThreadAndRestored) {
  log_set_job_context(9);
  EXPECT_EQ(log_job_context(), 9);
  std::thread other([] { EXPECT_EQ(log_job_context(), kLogNoJob); });
  other.join();
  log_set_job_context(kLogNoJob);
  EXPECT_EQ(log_job_context(), kLogNoJob);
}

}  // namespace
}  // namespace rif::obs
