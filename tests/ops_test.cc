// Tests of the live ops plane: the structured log ring and Logger sink
// hooks, the OpsServer request vocabulary over real sockets, concurrent
// subscribe-metrics fan-out with telescoping deltas, the slow-subscriber
// drop guard, hostile/corrupt request isolation (one session dies, the
// service and every other subscriber keep going), and one end-to-end
// FusionService run whose ops endpoint answers status/metrics/logs while
// remote workers ship node-attributed log records over kTelemetry.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "hsi/scene.h"
#include "net/socket_transport.h"
#include "obs/metrics_scraper.h"
#include "obs/ops_server.h"
#include "obs/trace_check.h"
#include "runtime/metrics.h"
#include "service/service.h"
#include "support/log.h"

namespace rif {
namespace {

bool send_text(net::SocketClient& client, const std::string& text) {
  return client.send_frame(
      std::vector<std::uint8_t>(text.begin(), text.end()));
}

bool read_text(net::SocketClient& client, std::string& out) {
  std::vector<std::uint8_t> frame;
  if (!client.read_frame(frame)) return false;
  out.assign(frame.begin(), frame.end());
  return true;
}

std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < body.size()) {
    const std::size_t nl = body.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(body.substr(start));
      break;
    }
    lines.push_back(body.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// --- LogRing / Logger sink ---------------------------------------------------

TEST(LogRingTest, BoundedDropOldestWithTally) {
  LogRing ring(2);
  for (int i = 0; i < 3; ++i) {
    LogRecord r;
    r.message = "m" + std::to_string(i);
    ring.append(std::move(r));
  }
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.dropped(), 1u);
  const std::vector<LogRecord> tail = ring.tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].message, "m1");  // oldest first, m0 evicted
  EXPECT_EQ(tail[1].message, "m2");
  EXPECT_EQ(ring.tail(1).size(), 1u);
  EXPECT_EQ(ring.tail(1)[0].message, "m2");
}

TEST(LoggerSinkTest, CapturesStructuredRecordsWhileInstalled) {
  Logger& logger = Logger::instance();
  const LogLevel before = logger.level();
  logger.set_level(LogLevel::kInfo);
  EXPECT_FALSE(logger.sink_installed());

  LogRing ring(16);
  logger.set_sink(&ring);
  EXPECT_TRUE(logger.sink_installed());
  log_set_job_context(7);
  RIF_LOG_INFO("optest", "captured line");
  // Below the threshold: the RIF_LOG macro never reaches write(), so the
  // sink sees only lines that would have hit stderr.
  RIF_LOG_DEBUG("optest", "not captured");
  log_set_job_context(kLogNoJob);
  logger.remove_sink(&ring);
  EXPECT_FALSE(logger.sink_installed());
  RIF_LOG_INFO("optest", "after removal");
  logger.set_level(before);

  ASSERT_EQ(ring.size(), 1u);
  const LogRecord r = ring.tail(1)[0];
  EXPECT_EQ(r.level, LogLevel::kInfo);
  EXPECT_EQ(r.component, "optest");
  EXPECT_EQ(r.message, "captured line");  // raw text, no "[job N]" prefix
  EXPECT_EQ(r.job, 7);
  EXPECT_EQ(r.node, -1);
}

TEST(LoggerSinkTest, ThreadCaptureClaimsTheThreadInsteadOfTheSink) {
  Logger& logger = Logger::instance();
  const LogLevel before = logger.level();
  logger.set_level(LogLevel::kInfo);
  LogRing ring(16);
  logger.set_sink(&ring);

  std::vector<std::string> captured;
  const std::function<void(const LogRecord&)> capture =
      [&captured](const LogRecord& r) { captured.push_back(r.message); };
  log_set_thread_capture(&capture);
  RIF_LOG_INFO("optest", "worker-side line");
  log_set_thread_capture(nullptr);
  RIF_LOG_INFO("optest", "coordinator line");

  logger.remove_sink(&ring);
  logger.set_level(before);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "worker-side line");
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.tail(1)[0].message, "coordinator line");
}

TEST(LogRecordJsonTest, EscapesAndCarriesAttribution) {
  LogRecord r;
  r.level = LogLevel::kWarn;
  r.component = "serve";
  r.message = "path \"a\\b\"";
  r.job = 3;
  r.t_seconds = 1.5;
  r.node = 4;
  const std::string line = obs::log_record_json(r);
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::parse_json(line, v, err)) << err << ": " << line;
  EXPECT_NE(line.find("\"level\":\"WARN\""), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"serve\""), std::string::npos);
  EXPECT_NE(line.find("\"node\":4"), std::string::npos);
  EXPECT_NE(line.find("\"job\":3"), std::string::npos);
  EXPECT_NE(line.find("\\\"a\\\\b\\\""), std::string::npos);
}

// --- OpsServer vocabulary ----------------------------------------------------

struct OpsFixture {
  LogRing ring{8};
  obs::OpsServer server;

  OpsFixture()
      : server(obs::OpsServerConfig{},
               obs::OpsServer::Providers{
                   [] { return std::string("{\"status\":\"ok\"}"); },
                   [] { return std::string("{\"counters\":{}}"); },
                   [] { return std::string("{\"total_us\":0}"); },
                   &ring}) {}
};

TEST(OpsServerTest, AnswersEveryCommandOnOneSession) {
  OpsFixture fx;
  for (int i = 0; i < 3; ++i) {
    LogRecord r;
    r.message = "record " + std::to_string(i);
    r.node = i;
    fx.ring.append(std::move(r));
  }
  ASSERT_TRUE(fx.server.start());

  net::SocketClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", fx.server.port()));
  std::string reply;

  ASSERT_TRUE(send_text(client, "status") && read_text(client, reply));
  EXPECT_EQ(reply, "{\"status\":\"ok\"}");
  ASSERT_TRUE(send_text(client, "metrics") && read_text(client, reply));
  EXPECT_EQ(reply, "{\"counters\":{}}");
  ASSERT_TRUE(send_text(client, "flamegraph") && read_text(client, reply));
  EXPECT_EQ(reply, "{\"total_us\":0}");

  // Whitespace-trimmed commands are fine (a netcat user hits enter).
  ASSERT_TRUE(send_text(client, "logs\n") && read_text(client, reply));
  EXPECT_EQ(split_lines(reply).size(), 3u);
  ASSERT_TRUE(send_text(client, "logs 2") && read_text(client, reply));
  const std::vector<std::string> lines = split_lines(reply);
  ASSERT_EQ(lines.size(), 2u);  // newest two, oldest first
  EXPECT_NE(lines[0].find("record 1"), std::string::npos);
  EXPECT_NE(lines[1].find("record 2"), std::string::npos);

  ASSERT_TRUE(send_text(client, "subscribe-metrics") &&
              read_text(client, reply));
  EXPECT_EQ(reply, "{\"subscribed\":true}");
  EXPECT_EQ(fx.server.subscribers(), 1u);
  EXPECT_EQ(fx.server.requests(), 6u);
  EXPECT_EQ(fx.server.bad_requests(), 0u);
  client.close();
}

TEST(OpsServerTest, NullProvidersAnswerErrorsInsteadOfDying) {
  obs::OpsServer server(obs::OpsServerConfig{}, obs::OpsServer::Providers{});
  ASSERT_TRUE(server.start());
  net::SocketClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()));
  std::string reply;
  ASSERT_TRUE(send_text(client, "status") && read_text(client, reply));
  EXPECT_NE(reply.find("\"error\""), std::string::npos);
  ASSERT_TRUE(send_text(client, "logs") && read_text(client, reply));
  EXPECT_NE(reply.find("\"error\""), std::string::npos);
  client.close();
}

TEST(OpsServerTest, ThreeSubscribersSeeTelescopingDeltas) {
  runtime::MetricsRegistry registry;
  obs::MetricsScraper scraper(registry);
  OpsFixture fx;
  ASSERT_TRUE(fx.server.start());
  scraper.set_on_scrape(
      [&fx](const std::string& line) { fx.server.publish_metrics_sample(line); });

  net::SocketClient clients[3];
  for (net::SocketClient& c : clients) {
    ASSERT_TRUE(c.connect_tcp("127.0.0.1", fx.server.port()));
    std::string ack;
    ASSERT_TRUE(send_text(c, "subscribe-metrics") && read_text(c, ack));
    EXPECT_EQ(ack, "{\"subscribed\":true}");
  }
  EXPECT_EQ(fx.server.subscribers(), 3u);

  for (int i = 0; i < 3; ++i) {
    registry.counter("ops.work").add(1);
    scraper.scrape_now();  // pushes one NDJSON frame to every subscriber
  }

  for (net::SocketClient& c : clients) {
    for (int i = 1; i <= 3; ++i) {
      std::string line;
      ASSERT_TRUE(read_text(c, line));
      // Raw totals telescope while each scrape's delta stays 1.
      const std::string expect =
          "\"ops.work\": {\"v\": " + std::to_string(i) + ", \"d\": 1}";
      EXPECT_NE(line.find(expect), std::string::npos) << line;
    }
    c.close();
  }
  EXPECT_EQ(fx.server.frames_dropped(), 0u);
}

TEST(OpsServerTest, SlowSubscriberLosesFramesNotTheSession) {
  obs::OpsServerConfig cfg;
  cfg.max_subscriber_backlog_bytes = 1024;
  obs::OpsServer server(cfg, obs::OpsServer::Providers{});
  ASSERT_TRUE(server.start());

  net::SocketClient slow;
  ASSERT_TRUE(slow.connect_tcp("127.0.0.1", server.port()));
  std::string ack;
  ASSERT_TRUE(send_text(slow, "subscribe-metrics") && read_text(slow, ack));

  // A payload far past kernel socket buffering guarantees the unsent
  // backlog exceeds the cap while the subscriber refuses to read; every
  // following push must be dropped, not queued, and the scraper-side
  // publish call must never block.
  const std::string big(8 << 20, 'x');
  server.publish_metrics_sample(big);
  for (int i = 0; i < 200 && server.frames_dropped() == 0; ++i) {
    server.publish_metrics_sample("{\"t\":0}");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server.frames_dropped(), 0u);
  // Dropping is not disconnecting: the subscriber session stays.
  EXPECT_EQ(server.subscribers(), 1u);
  slow.close();
}

TEST(OpsServerTest, ParserTakesOnlyPositiveDecimalLogCounts) {
  const obs::OpsServerConfig config;
  const auto parse = [&](const std::string& text) {
    const std::vector<std::uint8_t> frame(text.begin(), text.end());
    return obs::parse_ops_request(frame, config);
  };
  for (const char* bad :
       {"logs -5", "logs +5", "logs 0", "logs  5", "logs 5x", "logs 0x10",
        "logs 99999999999999999999999", "log", "statuses"}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
  }
  const auto tail = parse("logs 007\n");
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->command, obs::OpsRequest::Command::kLogs);
  EXPECT_EQ(tail->count, 7u);
  const auto fallback = parse(" logs ");
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->count, config.default_log_tail);
  ASSERT_TRUE(parse("flamegraph").has_value());
  EXPECT_EQ(parse("flamegraph")->command,
            obs::OpsRequest::Command::kFlamegraph);
}

// --- hostile input: session isolation ----------------------------------------

TEST(OpsServerTest, HostileAndCorruptFramesCloseOnlyTheirSession) {
  OpsFixture fx;
  ASSERT_TRUE(fx.server.start());

  // A well-behaved subscriber attaches first.
  net::SocketClient good;
  ASSERT_TRUE(good.connect_tcp("127.0.0.1", fx.server.port()));
  std::string ack;
  ASSERT_TRUE(send_text(good, "subscribe-metrics") && read_text(good, ack));

  // Hostile frame: valid RIF1 framing, binary garbage payload.
  {
    net::SocketClient bad;
    ASSERT_TRUE(bad.connect_tcp("127.0.0.1", fx.server.port()));
    ASSERT_TRUE(bad.send_frame(std::vector<std::uint8_t>{0x00, 0xff, 0x13, 0x37}));
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(bad.read_frame(frame));  // session closed, no reply
    bad.close();
  }
  // Unknown vocabulary closes the session too.
  {
    net::SocketClient bad;
    ASSERT_TRUE(bad.connect_tcp("127.0.0.1", fx.server.port()));
    ASSERT_TRUE(send_text(bad, "drop-tables"));
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(bad.read_frame(frame));
    bad.close();
  }
  // A `logs` count that is not a positive decimal number is malformed:
  // "-5" must close the session, not wrap around to a huge tail.
  {
    net::SocketClient bad;
    ASSERT_TRUE(bad.connect_tcp("127.0.0.1", fx.server.port()));
    ASSERT_TRUE(send_text(bad, "logs -5"));
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(bad.read_frame(frame));
    bad.close();
  }
  // Oversized request (past max_request_bytes): hostile by construction.
  {
    net::SocketClient bad;
    ASSERT_TRUE(bad.connect_tcp("127.0.0.1", fx.server.port()));
    ASSERT_TRUE(send_text(bad, std::string(512, 'a')));
    std::vector<std::uint8_t> frame;
    EXPECT_FALSE(bad.read_frame(frame));
    bad.close();
  }
  // Corrupt wire bytes (not even RIF1 frames), several seeded variants:
  // the frame assembler poisons that session; nothing else notices.
  std::uint64_t seed = 1234;
  for (int round = 0; round < 3; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::uint8_t junk[64];
    for (std::uint8_t& b : junk) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(seed >> 33);
    }
    ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
              static_cast<ssize_t>(sizeof(junk)));
    char buf[16];
    EXPECT_LE(::recv(fd, buf, sizeof(buf), 0), 0);  // closed on us
    ::close(fd);
  }

  EXPECT_GE(fx.server.bad_requests(), 4u);
  // The surviving subscriber still gets pushes, and new sessions still get
  // answers: the service never died and never wedged.
  fx.server.publish_metrics_sample("{\"t\":1}");
  std::string line;
  ASSERT_TRUE(read_text(good, line));
  EXPECT_EQ(line, "{\"t\":1}");
  net::SocketClient after;
  ASSERT_TRUE(after.connect_tcp("127.0.0.1", fx.server.port()));
  std::string reply;
  ASSERT_TRUE(send_text(after, "status") && read_text(after, reply));
  EXPECT_EQ(reply, "{\"status\":\"ok\"}");
  after.close();
  good.close();
}

// --- end to end: a real service with remote workers --------------------------

TEST(OpsEndToEndTest, ServiceAnswersOpsRequestsWhileWorkersShipLogs) {
  Logger& logger = Logger::instance();
  const LogLevel level_before = logger.level();
  // Info level so the worker lifecycle lines exist to ship; the thread
  // capture in the in-process serve loops claims them for kTelemetry.
  logger.set_level(LogLevel::kInfo);

  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 32;
  scene_cfg.height = 32;
  scene_cfg.bands = 12;
  scene_cfg.seed = 7;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  service::ServiceConfig cfg;
  cfg.worker_nodes = 1;
  cfg.execution_threads = 2;
  cfg.remote_workers = 2;
  cfg.remote_spawn_local = true;  // socketpair-backed worker threads
  cfg.scrape_period_seconds = 0.02;
  cfg.ops_enabled = true;
  service::FusionService service(cfg);
  ASSERT_NE(service.ops_server(), nullptr);
  ASSERT_NE(service.log_ring(), nullptr);
  const std::uint16_t port = service.ops_server()->port();
  ASSERT_NE(port, 0);

  // Two concurrent subscribers attach BEFORE the run and stream samples
  // while jobs execute on the remote workers.
  net::SocketClient subs[2];
  for (net::SocketClient& c : subs) {
    ASSERT_TRUE(c.connect_tcp("127.0.0.1", port));
    std::string ack;
    ASSERT_TRUE(send_text(c, "subscribe-metrics") && read_text(c, ack));
    EXPECT_EQ(ack, "{\"subscribed\":true}");
  }

  service::JobRequest r;
  r.tenant = "ops";
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  r.config.workers = 3;
  r.config.tiles_per_worker = 2;
  const service::SubmitResult submitted = service.submit(std::move(r));
  ASSERT_TRUE(submitted.accepted());
  const service::ServiceReport report = service.run();
  ASSERT_TRUE(report.all_completed);
  ASSERT_EQ(report.remote_jobs, 1);

  // Each subscriber collects two live NDJSON samples over the wire (the
  // scraper keeps streaming after run() while the ops plane is up, so this
  // never races the run's length).
  for (net::SocketClient& c : subs) {
    for (int i = 0; i < 2; ++i) {
      std::string line;
      ASSERT_TRUE(read_text(c, line));
      obs::JsonValue v;
      std::string err;
      ASSERT_TRUE(obs::parse_json(line, v, err)) << err;
      EXPECT_NE(line.find("\"counters\""), std::string::npos);
    }
  }

  net::SocketClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", port));
  std::string reply;

  // status: job counts and the leased workers with liveness.
  ASSERT_TRUE(send_text(client, "status") && read_text(client, reply));
  EXPECT_NE(reply.find("\"completed\": 1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"workers\": [{\"node\": 2"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"subscribers\": 2"), std::string::npos) << reply;

  // metrics: the merged cluster-wide histograms are in the snapshot,
  // alongside the per-node series.
  ASSERT_TRUE(send_text(client, "metrics") && read_text(client, reply));
  EXPECT_NE(reply.find("remote.cluster.screen_seconds"), std::string::npos);
  EXPECT_NE(reply.find("remote.worker.2."), std::string::npos);

  // logs: worker lifecycle records appear with node attribution (nodes 2
  // and 3 — worker_nodes=1, so remote ids start at 2), next to the
  // coordinator's own node:-1 lines.
  ASSERT_TRUE(send_text(client, "logs 512") && read_text(client, reply));
  EXPECT_NE(reply.find("\"node\":-1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"node\":2"), std::string::npos) << reply;
  EXPECT_NE(reply.find("leased in as node"), std::string::npos) << reply;
  EXPECT_NE(reply.find("run complete"), std::string::npos) << reply;

  // flamegraph on demand answers a parseable document.
  ASSERT_TRUE(send_text(client, "flamegraph") && read_text(client, reply));
  obs::JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::parse_json(reply, v, err)) << err;

  // The live ops-plane and log-plane health.
  ASSERT_NE(service.remote_telemetry(), nullptr);
  ASSERT_NE(service.log_ring(), nullptr);
  ASSERT_NE(service.ops_server(), nullptr);
  EXPECT_GT(service.remote_telemetry()->log_records(), 0u);
  EXPECT_GT(service.log_ring()->total(), 0u);
  EXPECT_EQ(service.ops_server()->bad_requests(), 0u);

  client.close();
  logger.set_level(level_before);
  // Regression: the service is destroyed HERE with two live subscribers
  // still attached and the scraper mid-period — teardown must stop the
  // scrape thread before the ops server and registry go away (no
  // use-after-free, no hang). The subscribers' sockets just see EOF.
}

}  // namespace
}  // namespace rif
