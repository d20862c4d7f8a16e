// Demo: a multi-tenant fusion service day.
//
// Four tenants share one 16-node virtual cluster: an interactive tenant
// submitting small high-priority jobs, a production tenant with mid-size
// normal jobs, a batch tenant with big low-priority sweeps, and an
// archive tenant whose scene lives on disk and is fused out-of-core in
// Streaming mode under a host-memory budget. The service queues, admits
// against free capacity (and memory), runs jobs concurrently on disjoint
// leases, and accounts per tenant.
//
// Live ops plane (optional):
//   --ops-unix <path> | --ops-port <port>   expose the introspection
//                                           endpoint (tools/rif_ops talks
//                                           to it)
//   --linger <seconds>                      keep the process (and the ops
//                                           endpoint) alive after the run
//                                           so clients can attach and tail
//                                           the live metrics stream
// Without flags the demo behaves exactly as before — deterministic stdout,
// no sockets.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "hsi/cube_io.h"
#include "hsi/scene.h"
#include "obs/chrome_trace.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "service/service.h"
#include "support/table.h"

using namespace rif;

namespace {

core::FusionJobConfig job_config(int workers) {
  core::FusionJobConfig cfg;
  cfg.mode = core::ExecutionMode::kCostOnly;
  cfg.shape = {320, 320, 105};
  cfg.workers = workers;
  cfg.tiles_per_worker = 2;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ops_unix;
  std::uint16_t ops_port = 0;
  bool ops_enabled = false;
  double linger_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ops-unix") == 0 && i + 1 < argc) {
      ops_unix = argv[++i];
      ops_enabled = true;
    } else if (std::strcmp(argv[i], "--ops-port") == 0 && i + 1 < argc) {
      ops_port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
      ops_enabled = true;
    } else if (std::strcmp(argv[i], "--linger") == 0 && i + 1 < argc) {
      linger_seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--ops-unix <path> | --ops-port <port>] "
                   "[--linger <seconds>]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("=== Multi-tenant fusion service demo ===\n");
  std::printf("cluster: 1 head + 16 worker nodes, 100BaseT LAN, "
              "first-fit admission\n\n");

  // One tenant's scene lives on disk, not in memory: write it out first.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 64;
  scene_cfg.height = 256;
  scene_cfg.bands = 16;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);
  const std::string cube_path =
      (std::filesystem::temp_directory_path() / "rif_service_archive.dat")
          .string();
  if (!hsi::save_cube(cube_path, scene.cube, hsi::Interleave::kBip,
                      scene.wavelengths)) {
    std::printf("cannot write %s\n", cube_path.c_str());
    return 1;
  }

  service::ServiceConfig cfg;
  cfg.worker_nodes = 16;
  cfg.execution_threads = 2;
  // Budget below the archive cube: only the STREAMED working set
  // (queue_depth chunk buffers) fits, which is the point.
  cfg.host_memory_budget = scene.cube.bytes() / 2;
  if (ops_enabled) {
    // The ops plane lives from construction to destruction, so a rif_ops
    // client can attach before, during, or (with --linger) after the run.
    cfg.ops_enabled = true;
    cfg.ops_port = ops_port;
    cfg.ops_socket_path = ops_unix;
  }
  service::FusionService service(cfg);
  if (ops_enabled && service.ops_server() != nullptr) {
    if (!ops_unix.empty()) {
      std::fprintf(stderr, "ops endpoint: unix %s\n", ops_unix.c_str());
    } else {
      std::fprintf(stderr, "ops endpoint: tcp 127.0.0.1:%u\n",
                   static_cast<unsigned>(service.ops_server()->port()));
    }
  }

  // Tracing on for the whole day: every job's lifecycle — submit, queue
  // wait, admission, execution down to per-chunk stages — lands on one
  // Perfetto-loadable timeline (load the exported file in
  // https://ui.perfetto.dev or chrome://tracing).
  obs::SpanTracer::instance().set_enabled(true);

  // A morning of traffic: arrivals staggered over ten virtual minutes.
  int submitted = 0;
  const auto submit = [&](const char* tenant, int workers,
                          service::Priority priority, double arrival_s) {
    service::JobRequest r;
    r.tenant = tenant;
    r.config = job_config(workers);
    r.priority = priority;
    r.arrival = from_seconds(arrival_s);
    const auto result = service.submit(std::move(r));
    ++submitted;
    if (!result.accepted()) {
      std::printf("job %lld from %s rejected: %s\n",
                  static_cast<long long>(result.id), tenant,
                  service::to_string(result.rejected));
    }
  };

  for (int i = 0; i < 6; ++i) {
    submit("interactive", 2, service::Priority::kHigh, 30.0 * i);
  }
  for (int i = 0; i < 4; ++i) {
    submit("production", 8, service::Priority::kNormal, 60.0 + 90.0 * i);
  }
  for (int i = 0; i < 3; ++i) {
    submit("batch-sweep", 16, service::Priority::kBatch, 10.0 + 120.0 * i);
  }
  // One tenant asks for the impossible; the service refuses instead of
  // queueing it forever.
  submit("greedy", 64, service::Priority::kHigh, 0.0);

  // The archive tenant streams its on-disk scene in bounded memory.
  {
    service::JobRequest r;
    r.tenant = "archive";
    r.config = job_config(4);
    r.mode = service::JobMode::kStreaming;
    r.cube_path = cube_path;
    r.chunk_lines = 16;
    r.arrival = from_seconds(45.0);
    const auto result = service.submit(std::move(r));
    ++submitted;
    if (!result.accepted()) {
      std::printf("archive streaming job rejected: %s\n",
                  service::to_string(result.rejected));
    }
  }

  const service::ServiceReport report = service.run();

  Table jobs({"job", "tenant", "prio", "P", "state", "wait(s)", "service(s)",
              "nodes"});
  for (const auto& r : report.jobs) {
    std::string nodes;
    for (const auto n : r.leased_nodes) {
      if (!nodes.empty()) nodes += ',';
      nodes += std::to_string(n);
    }
    const char* state = r.completed ? "done"
                        : r.failed  ? "failed"
                                    : service::to_string(r.rejected);
    jobs.add_row({strf("%lld", static_cast<long long>(r.id)), r.tenant,
                  service::to_string(r.priority), strf("%d", r.workers),
                  state, strf("%.1f", r.wait_seconds),
                  strf("%.1f", r.service_seconds), nodes});
  }
  jobs.print();

  std::printf("\n");
  Table tenants({"tenant", "submitted", "completed", "rejected", "Gflops",
                 "mean wait(s)", "mean service(s)"});
  for (const auto& acc : report.tenants) {
    const double done =
        std::max(1.0, static_cast<double>(acc.jobs_completed));
    tenants.add_row({acc.tenant, strf("%llu", (unsigned long long)acc.jobs_submitted),
                     strf("%llu", (unsigned long long)acc.jobs_completed),
                     strf("%llu", (unsigned long long)acc.jobs_rejected),
                     strf("%.2f", acc.flops_charged * 1e-9),
                     strf("%.1f", acc.wait_seconds / done),
                     strf("%.1f", acc.service_seconds / done)});
  }
  tenants.print();

  std::printf("\nservice: %d/%d jobs completed, peak concurrency %d, "
              "makespan %.1fs, throughput %.3f jobs/s\n",
              report.jobs_completed, report.jobs_submitted,
              report.max_concurrent_jobs, report.makespan_seconds,
              report.throughput_jobs_per_sec);
  std::printf("latency: wait p50/p95/p99 = %.1f/%.1f/%.1f s, "
              "total p99 = %.1f s\n",
              report.wait_p50, report.wait_p95, report.wait_p99,
              report.latency_p99);
  if (report.streaming.jobs > 0) {
    // (stall seconds are real wall time and vary run to run; stdout stays
    // deterministic — see JobRecord::stream for the live counters.)
    std::printf("streaming: %d job(s), %.1f MB streamed, peak buffers "
                "%.2f MB (cube %.2f MB), simd=%s\n",
                report.streaming.jobs,
                static_cast<double>(report.streaming.bytes_read) / 1e6,
                static_cast<double>(report.streaming.max_peak_buffer_bytes) /
                    1e6,
                static_cast<double>(scene.cube.bytes()) / 1e6,
                report.simd_backend.c_str());
  }
  // Export the day's trace and prove it is schema-valid with the in-repo
  // checker. Span COUNTS are deterministic (they follow the virtual
  // timeline and the fixed chunk geometry); timings inside the file are
  // wall clock and vary, so stdout sticks to the counts.
  obs::SpanTracer::instance().set_enabled(false);
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "rif_service_trace.json")
          .string();
  bool trace_ok = false;
  if (obs::write_chrome_trace(trace_path)) {
    const obs::TraceCheckResult check = obs::check_chrome_trace_file(trace_path);
    trace_ok = check.ok;
    const auto count = [&](const char* name) {
      const auto it = check.span_counts.find(name);
      return it == check.span_counts.end() ? std::size_t{0} : it->second;
    };
    std::printf("\ntrace: %s — %s\n", trace_path.c_str(),
                check.ok ? "valid Chrome trace" : check.error.c_str());
    std::printf("trace spans: submit=%zu queue_wait=%zu execute=%zu "
                "host_execute=%zu chunk_read=%zu\n",
                count("submit"), count("queue_wait"), count("execute"),
                count("host_execute"), count("chunk_read"));
  } else {
    std::printf("\ntrace: cannot write %s\n", trace_path.c_str());
  }

  if (linger_seconds > 0.0) {
    // The service (and with it the ops endpoint and the metrics scraper)
    // stays alive so clients can attach now: status, metrics, logs,
    // flamegraph, and the live subscribe-metrics stream all keep working.
    std::fprintf(stderr, "lingering %.1fs for ops clients...\n",
                 linger_seconds);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(linger_seconds));
  }

  std::filesystem::remove(trace_path);
  std::filesystem::remove(cube_path);
  std::filesystem::remove(cube_path + ".hdr");
  return report.all_completed && trace_ok ? 0 : 1;
}
