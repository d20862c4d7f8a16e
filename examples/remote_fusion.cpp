// Demo / CI smoke: a fusion job sharded across REAL worker processes.
//
// With no arguments the service spawns its workers as in-process threads
// over socketpairs (same protocol, one process). With argv[1] = path to the
// rif_worker binary it goes the whole way: fork/exec two rif_worker
// processes, point them at a Unix-domain socket, and let the service lease
// them in over the wire — tiles, covariance shards and colour tiles all
// travel as length-prefixed frames between processes.
//
// Either way the composite must be byte-identical to the shared-memory
// engine run with the same shard/tile counts — the socket
// transport may change WHERE the arithmetic runs, never a single bit of it.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/parallel/parallel_pct.h"
#include "hsi/scene.h"
#include "obs/flamegraph.h"
#include "obs/remote_telemetry.h"
#include "obs/span_tracer.h"
#include "obs/trace_check.h"
#include "service/service.h"
#include "support/log.h"

using namespace rif;

int main(int argc, char** argv) {
  const bool real_processes = argc > 1;
  const std::string worker_bin = real_processes ? argv[1] : "";

  std::printf("=== Remote fusion demo (%s workers) ===\n",
              real_processes ? "separate-process" : "in-process socketpair");

  hsi::SceneConfig scene_cfg;
  scene_cfg.width = 48;
  scene_cfg.height = 48;
  scene_cfg.bands = 16;
  scene_cfg.seed = 11;
  const hsi::Scene scene = hsi::generate_scene(scene_cfg);

  // One host node + two remote workers; a 3-worker job must lease remote
  // capacity, so its pixels travel the socket protocol.
  service::ServiceConfig cfg;
  cfg.worker_nodes = 1;
  cfg.execution_threads = 2;
  cfg.remote_workers = 2;
  // Telemetry-plane artifacts: a live NDJSON metrics feed during the run,
  // plus (after the run) one unified trace and a flamegraph report.
  cfg.scrape_period_seconds = 0.05;
  cfg.metrics_stream_path = "METRICS_remote.ndjson";

  const std::string sock_path =
      (std::filesystem::temp_directory_path() /
       ("rif_remote_" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::vector<pid_t> children;
  if (real_processes) {
    cfg.remote_socket_path = sock_path;
    // Launch the workers BEFORE the service binds; their connect loop
    // retries until the listener appears.
    for (int i = 0; i < cfg.remote_workers; ++i) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::execl(worker_bin.c_str(), worker_bin.c_str(), "--unix",
                sock_path.c_str(), "--retry-seconds", "15",
                static_cast<char*>(nullptr));
        std::perror("execl");
        _exit(127);
      }
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      children.push_back(pid);
    }
  } else {
    cfg.remote_spawn_local = true;
  }

  obs::SpanTracer& tracer = obs::SpanTracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  service::FusionService service(cfg);
  service::JobRequest r;
  r.tenant = "edge";
  r.config.mode = core::ExecutionMode::kFull;
  r.config.shape = {scene_cfg.width, scene_cfg.height, scene_cfg.bands};
  r.config.cube = &scene.cube;
  r.config.workers = 3;
  r.config.tiles_per_worker = 2;
  const service::SubmitResult submitted = service.submit(std::move(r));
  if (!submitted.accepted()) {
    std::printf("job rejected: %s\n", service::to_string(submitted.rejected));
    return 1;
  }

  const service::ServiceReport report = service.run();
  tracer.set_enabled(false);

  // Reap the worker processes; a clean kGoodbye shutdown exits 0.
  bool workers_clean = true;
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::printf("worker pid %d: %s\n", static_cast<int>(pid),
                clean ? "clean exit" : "UNCLEAN exit");
    workers_clean = workers_clean && clean;
  }
  std::filesystem::remove(sock_path);

  const service::JobRecord& rec =
      report.jobs[static_cast<std::size_t>(submitted.id)];
  std::printf("workers attached: %d, remote jobs: %d, fallbacks: %d, "
              "disconnects: %d\n",
              report.remote_workers_attached, report.remote_jobs,
              report.remote_fallbacks, report.remote_disconnects);
  std::printf("job: completed=%d remote_executed=%d shards=%d "
              "requeued_tiles=%d\n",
              rec.completed ? 1 : 0, rec.remote_executed ? 1 : 0,
              rec.remote_workers, rec.remote_requeued_tiles);

  if (!rec.completed || !rec.remote_executed || report.remote_jobs < 1) {
    std::printf("FAIL: job did not execute over the remote plane\n");
    return 1;
  }

  // --- Distributed telemetry plane ---------------------------------------
  // One unified trace: the coordinator's own wall/virtual lanes plus one
  // clock-aligned pid lane per worker, validated by the in-repo checker.
  const obs::RemoteTelemetryCollector* telemetry = service.remote_telemetry();
  if (telemetry == nullptr || telemetry->spans() == 0) {
    std::printf("FAIL: no remote telemetry collected (batches=%llu)\n",
                telemetry == nullptr
                    ? 0ULL
                    : static_cast<unsigned long long>(telemetry->batches()));
    return 1;
  }
  std::printf("telemetry: %llu batches, %llu spans, %llu rejected, "
              "%llu duplicate flushes, %llu log records\n",
              static_cast<unsigned long long>(telemetry->batches()),
              static_cast<unsigned long long>(telemetry->spans()),
              static_cast<unsigned long long>(telemetry->rejected()),
              static_cast<unsigned long long>(telemetry->duplicates()),
              static_cast<unsigned long long>(telemetry->log_records()));
  // Worker log shipment rides the same telemetry lane. The serve loop logs
  // its lifecycle at INFO, so records only exist when the fleet ran at
  // info or chattier — assert exactly then (CI runs with RIF_LOG=info).
  {
    const char* env = std::getenv("RIF_LOG");
    rif::LogLevel env_level = rif::LogLevel::kWarn;
    const bool verbose = env != nullptr && parse_log_level(env, &env_level) &&
                         env_level <= rif::LogLevel::kInfo;
    if (verbose && telemetry->log_records() == 0) {
      std::printf("FAIL: RIF_LOG=%s but the workers shipped no log records\n",
                  env);
      return 1;
    }
  }
  if (!obs::write_unified_trace("TRACE_remote.json", tracer, *telemetry)) {
    std::printf("FAIL: cannot write TRACE_remote.json\n");
    return 1;
  }
  const obs::TraceCheckResult tc =
      obs::check_chrome_trace_file("TRACE_remote.json");
  if (!tc.ok) {
    std::printf("FAIL: TRACE_remote.json invalid: %s\n", tc.error.c_str());
    return 1;
  }
  // Coordinator wall lane + two worker lanes at minimum (the virtual lane
  // appears too when the sim emitted spans).
  if (tc.pids < 3) {
    std::printf("FAIL: unified trace has %zu pid lanes, need >= 3\n", tc.pids);
    return 1;
  }
  std::printf("TRACE_remote.json: %zu events, %zu pid lanes, valid\n",
              tc.events, tc.pids);

  // Every completed remote job must have its END-of-job telemetry from
  // >= 1 worker (the service barriers on the flush carrying the whole-job
  // span — a mid-job periodic batch alone is a half lane).
  for (const service::JobRecord& jr : report.jobs) {
    if (!jr.remote_executed) continue;
    if (telemetry->nodes_with_job_end(jr.id).empty()) {
      std::printf("FAIL: remote job %d completed with no worker spans\n",
                  static_cast<int>(jr.id));
      return 1;
    }
  }

  // Clock alignment: every worker's whole-job span must land inside the
  // coordinator's remote_execute span on the shared wall timeline. The
  // slack absorbs the ping-echo estimate's error (same-machine: ~RTT/2).
  const std::vector<obs::FlameSpan> host_spans = obs::tracer_flame_spans(tracer);
  const std::vector<obs::FlameSpan> worker_spans =
      telemetry->flame_spans(tracer.epoch_ns());
  constexpr double kSlackUs = 2000.0;
  int job_spans_checked = 0;
  for (const obs::FlameSpan& ws : worker_spans) {
    if (ws.name != "remote.job") continue;
    bool nested = false;
    for (const obs::FlameSpan& hs : host_spans) {
      if (hs.name != "remote_execute") continue;
      if (ws.ts_us >= hs.ts_us - kSlackUs &&
          ws.ts_us + ws.dur_us <= hs.ts_us + hs.dur_us + kSlackUs) {
        nested = true;
        break;
      }
    }
    if (!nested) {
      std::printf("FAIL: worker remote.job span [%.0f, %.0f]us falls outside "
                  "every coordinator remote_execute span\n",
                  ws.ts_us, ws.ts_us + ws.dur_us);
      return 1;
    }
    ++job_spans_checked;
  }
  if (job_spans_checked == 0) {
    std::printf("FAIL: no remote.job spans in the worker lanes\n");
    return 1;
  }
  std::printf("clock alignment: %d remote.job span(s) nested inside "
              "remote_execute\n",
              job_spans_checked);

  // Flamegraph report: folded from the same spans the trace carries.
  if (report.flamegraph.rows.empty() ||
      report.flamegraph.find("remote.job") == nullptr) {
    std::printf("FAIL: report flamegraph missing remote.job row\n");
    return 1;
  }
  if (!obs::write_flamegraph("FLAME_remote.json", report.flamegraph)) {
    std::printf("FAIL: cannot write FLAME_remote.json\n");
    return 1;
  }
  std::printf("FLAME_remote.json: %zu rows\n", report.flamegraph.rows.size());

  // Live metrics stream: every line is a standalone JSON sample, and the
  // remote plane's per-node series appear once telemetry has merged.
  std::ifstream stream_in("METRICS_remote.ndjson");
  std::size_t stream_lines = 0;
  bool saw_remote_series = false;
  for (std::string line; std::getline(stream_in, line);) {
    if (line.empty()) continue;
    obs::JsonValue v;
    std::string err;
    if (!obs::parse_json(line, v, err)) {
      std::printf("FAIL: METRICS_remote.ndjson line %zu invalid: %s\n",
                  stream_lines + 1, err.c_str());
      return 1;
    }
    if (line.find("remote.worker.") != std::string::npos) {
      saw_remote_series = true;
    }
    ++stream_lines;
  }
  if (stream_lines == 0 || !saw_remote_series) {
    std::printf("FAIL: METRICS_remote.ndjson has %zu lines, remote series %s\n",
                stream_lines, saw_remote_series ? "present" : "MISSING");
    return 1;
  }
  std::printf("METRICS_remote.ndjson: %zu samples, remote.worker.* present\n",
              stream_lines);

  // Byte-identity oracle: the shared-memory engine with the same shard
  // count (live remote workers) and tile count (workers admitted *
  // tiles_per_worker).
  core::ParallelPctConfig expect_cfg;
  expect_cfg.tiles = rec.workers * 2;
  expect_cfg.cov_shards = rec.remote_workers;
  const core::PctResult expected = core::fuse_parallel(scene.cube, expect_cfg);
  const bool bit_exact =
      rec.outcome.composite.data == expected.composite.data &&
      rec.outcome.unique_set_size == expected.unique_set_size &&
      rec.outcome.eigenvalues == expected.eigenvalues &&
      rec.outcome.screen_comparisons == expected.screen_comparisons &&
      rec.outcome.merge_comparisons == expected.merge_comparisons;
  std::printf("composite vs shared-memory engine: %s\n",
              bit_exact ? "byte-identical" : "MISMATCH");

  return (bit_exact && workers_clean && report.all_completed) ? 0 : 1;
}
