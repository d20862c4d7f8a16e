// Microbench: framed round-trips over a socketpair and an ops-endpoint
// status probe over loopback TCP. Frames travel in FrameBytes, as on the
// remote worker plane: the multi-MB case runs the frame assembler's large
// payload path (uninitialised, huge-page-advised receive buffers).
//
// These are the per-hop socket costs every remote-execution message pays
// on top of the sim transport's free virtual delivery. The envelope codec
// itself is measured by perfbench's `scp.*` metrics. `--smoke` shrinks the
// timing budget for CI.
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "net/socket_transport.h"
#include "obs/ops_server.h"
#include "support/frame_bytes.h"
#include "support/table.h"

using namespace rif;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Round-trip `payload_bytes` frames over a socketpair between two
/// threads; returns round-trips per second.
double socketpair_rtt(std::size_t payload_bytes, int repeats) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::perror("socketpair");
    std::abort();
  }
  std::thread echo([fd = sv[1]] {
    net::SocketClient peer;
    peer.adopt(fd);
    FrameBytes frame;
    while (peer.read_frame(frame)) {
      if (!peer.send_frame(frame)) break;
    }
    peer.close();
  });

  net::SocketClient client;
  client.adopt(sv[0]);
  const FrameBytes payload(payload_bytes, 0x7E);
  FrameBytes reply;
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    if (!client.send_frame(payload) || !client.read_frame(reply)) {
      std::fprintf(stderr, "socketpair exchange failed\n");
      std::abort();
    }
  }
  const double secs = seconds_since(start);
  client.close();
  echo.join();
  return repeats / secs;
}

/// Ops-request round-trips per second against a live OpsServer over
/// loopback TCP: the cost a monitoring poller pays per `status` probe
/// (frame codec + poll-loop dispatch + provider call + reply frame).
double ops_request_rtt(int repeats) {
  obs::OpsServerConfig cfg;
  obs::OpsServer::Providers providers;
  providers.status_json = [] {
    return std::string("{\"uptime_seconds\": 1.0, \"jobs\": {}}");
  };
  obs::OpsServer server(cfg, providers);
  if (!server.start()) {
    std::fprintf(stderr, "ops server bind failed\n");
    std::abort();
  }
  net::SocketClient client;
  if (!client.connect_tcp("127.0.0.1", server.port())) {
    std::fprintf(stderr, "ops connect failed\n");
    std::abort();
  }
  const FrameBytes request = {'s', 't', 'a', 't', 'u', 's'};
  FrameBytes reply;
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    if (!client.send_frame(request) || !client.read_frame(reply)) {
      std::fprintf(stderr, "ops exchange failed\n");
      std::abort();
    }
  }
  const double secs = seconds_since(start);
  client.close();
  server.stop();
  return repeats / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  std::printf("=== Byte-transport round-trip microbench%s ===\n\n",
              smoke ? " (smoke)" : "");

  Table table({"payload", "round-trips/s"});
  struct Case {
    const char* label;
    std::size_t bytes;
  };
  // A kRequestWork-sized control frame, a covariance-sum-sized reply, and
  // a full 105-band tile of a 320-wide scene (20 rows).
  const Case cases[] = {
      {"64 B", 64},
      {"45 KB", 45 * 1024},
      {"2.6 MB", static_cast<std::size_t>(20) * 320 * 105 * 4},
  };
  for (const Case& c : cases) {
    const int rtt_reps = smoke ? 20 : (c.bytes < 1 << 20 ? 2000 : 100);
    table.add_row({c.label, strf("%.0f", socketpair_rtt(c.bytes, rtt_reps))});
  }
  table.print();
  std::printf("\nround-trip = framed echo over a socketpair.\n");

  const int ops_reps = smoke ? 50 : 5000;
  std::printf("\nops status probe: %.0f requests/s over loopback TCP "
              "(frame + dispatch + provider + reply)\n",
              ops_request_rtt(ops_reps));
  return 0;
}
