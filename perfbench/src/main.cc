// Layered benchmark of fusion jobs through the public service API.
//
//   perfbench --workload resident|stream|remote --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// One closed-loop client: each request is a fresh service::FusionService
// (built before the timer starts), one submit(), and run(); its latency
// runs from the submit() call to run() returning the composite. Every
// composite is checked against the run's reference (see workloads.h), and
// any failed request makes the exit code non-zero.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate traced run (see README.md for every name). The
// last stdout line is the JSON result; the line before it records the
// run's noise context (CPU count, SIMD tier, threads, steal) and, for an
// untraced run, its wall-clock figures (p50, p90, throughput), which
// follow host steal too closely to be gated.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "linalg/kernels.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// An untraced run keeps going past --seconds until it has this many jobs
/// (ten samples beyond p90), but never past kMaxSecondsFactor x --seconds.
constexpr std::size_t kMinJobs = 100;
constexpr double kMaxSecondsFactor = 1.25;
/// Requests per phase and layer-probe passes of a traced run, at least.
constexpr int kMinPhaseRequests = 3;
constexpr int kMinProbeReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (key == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

/// One JSON object: {"name": {"value": v, "unit": u}, ...}.
struct Metric {
  double value;
  std::string unit;
};

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

void print_result(bool correct, int attempted, int failed,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
}

/// The noise context of a run: recorded beside the metrics, never as one.
struct Context {
  HostTicks host0;
  double cpu0 = 0.0;

  void start() {
    host0 = read_host_ticks();
    cpu0 = process_cpu_seconds();
  }
  void print(const Workload& w, std::uint64_t seed, const std::string& extra) {
    const HostTicks host1 = read_host_ticks();
    const double own_ticks = (process_cpu_seconds() - cpu0) * ticks_per_second();
    const double busy = static_cast<double>(host1.busy - host0.busy);
    const double total = static_cast<double>(host1.total - host0.total);
    const double steal = static_cast<double>(host1.steal - host0.steal);
    std::printf(
        "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
        "\"simd\": \"%s\", \"execution_threads\": %d, \"remote_worker_threads\": "
        "%d, \"stream_reader_threads\": %d, \"host_ticks\": %.0f, "
        "\"steal_ticks\": %.0f, \"steal_pct\": %.2f, "
        "\"other_process_ticks\": %.0f%s}}\n",
        w.name.c_str(), static_cast<unsigned long long>(seed),
        sysconf(_SC_NPROCESSORS_ONLN), rif::linalg::kernels::backend(),
        kExecutionThreads, w.remote_workers, w.kind == Kind::kStream ? 1 : 0,
        total, steal, total > 0 ? 100.0 * steal / total : 0.0,
        std::max(0.0, busy - own_ticks), extra.c_str());
  }
};

/// The mean over groups of each group's median.
double mean_of_medians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  for (const auto& g : groups) sum += median(g);
  return groups.empty() ? 0.0 : sum / static_cast<double>(groups.size());
}

int fail_setup(const std::string& error) {
  std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
  return 2;
}

/// --trace 0: the end-to-end metrics.
int run_untraced(const Args& args, const Workload& w,
                 rif::core::ThreadPool& pool) {
  // Set up every scene of the run; setup_s is the median of one scene's.
  std::vector<double> setup_s;
  std::vector<Inputs> inputs;
  for (int i = 0; i < w.scenes; ++i) {
    std::string error;
    const auto t0 = Clock::now();
    std::optional<Inputs> in =
        make_inputs(w, args.seed, i, args.workdir, false, pool, &error);
    if (!in) return fail_setup(error);
    setup_s.push_back(ms_since(t0) / 1e3);
    // A streaming job never holds the cube; neither does the run.
    if (w.kind == Kind::kStream) in->scene.reset();
    inputs.push_back(std::move(*in));
  }

  Context ctx;
  ctx.start();
  const auto t0 = Clock::now();
  const double mpix_per_job = static_cast<double>(w.pixels()) / 1e6;
  // Per request: wall latency, CPU per Mpix, and the resident memory the
  // request adds to what the process held when it started (VmHWM reset
  // before it, after the heap freed by earlier requests went back to the
  // system). The gated figures are CPU and memory, which host steal
  // barely moves: per scene the median over its requests, then the mean
  // over scenes, so each scene's content weighs the same. Wall figures
  // go to the context line (see README.md).
  std::vector<double> latencies;
  std::vector<std::vector<double>> cpu_per_mpix(inputs.size());
  std::vector<std::vector<double>> rss_added(inputs.size());
  int attempted = 0;
  int failed = 0;
  bool rss_reset = true;
  std::uint64_t admitted = 0;
  while (ms_since(t0) < args.seconds * 1e3 ||
         (latencies.size() < kMinJobs &&
          ms_since(t0) < kMaxSecondsFactor * args.seconds * 1e3)) {
    const std::size_t scene = static_cast<std::size_t>(attempted) % inputs.size();
    const Inputs& in = inputs[scene];
    malloc_trim(0);
    const double rss_before = current_rss_mb();
    rss_reset = reset_peak_rss() && rss_reset;
    const double cpu_before = process_cpu_seconds();
    const JobRun r = run_job(in, nullptr, attempted, false);
    const double cpu_ms = (process_cpu_seconds() - cpu_before) * 1e3;
    const double rss_peak = peak_rss_mb();
    ++attempted;
    if (!r.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "request %d failed: %s\n", attempted,
                   r.failure.c_str());
      continue;
    }
    admitted = r.memory_demand;
    latencies.push_back(r.latency_ms);
    cpu_per_mpix[scene].push_back(cpu_ms / mpix_per_job);
    rss_added[scene].push_back(rss_peak - rss_before);
  }
  const double wall_s = ms_since(t0) / 1e3;
  const double cpu_s = process_cpu_seconds() - ctx.cpu0;
  const double mpix = static_cast<double>(latencies.size()) * mpix_per_job;

  const double p50 = percentile(latencies, 50);
  const double p90 = percentile(latencies, 90);
  char extra[512];
  std::snprintf(extra, sizeof(extra),
                ", \"scenes\": %d, \"jobs\": %zu, \"timed_wall_s\": %.3f, "
                "\"job_p50_ms\": %.3f, \"job_p90_ms\": %.3f, "
                "\"job_p90_to_p50\": %.4f, \"throughput_mpix_s\": %.4f, "
                "\"phase_cpu_ms_per_mpix\": %.1f, \"process_peak_rss_mb\": %.1f, "
                "\"peak_rss_reset\": %s, \"admitted_budget_mb\": %.2f",
                w.scenes, latencies.size(), wall_s, p50, p90,
                p50 > 0 ? p90 / p50 : 0.0, mpix / wall_s,
                mpix > 0 ? cpu_s * 1e3 / mpix : 0.0, peak_rss_mb(),
                rss_reset ? "true" : "false",
                static_cast<double>(admitted) / 1e6);
  ctx.print(w, args.seed, extra);
  std::fprintf(stderr,
               "%s: %zu jobs in %.1f s, p50 %.1f ms, p90 %.1f ms, setup %.2f s\n",
               w.name.c_str(), latencies.size(), wall_s, p50, p90, median(setup_s));

  std::map<std::string, Metric> m;
  m["cpu_ms_per_mpix"] = {mean_of_medians(cpu_per_mpix), "ms/Mpix"};
  m["job_peak_rss_mb"] = {mean_of_medians(rss_added), "MB"};
  m["setup_s"] = {median(setup_s), "s"};
  const bool correct = failed == 0 && !latencies.empty();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

/// --trace 1: the per-layer metrics, from a separate traced run.
int run_traced(const Args& args, const Workload& w, rif::core::ThreadPool& pool) {
  std::string error;
  std::optional<Inputs> in =
      make_inputs(w, args.seed, 0, args.workdir, true, pool, &error);
  if (!in) return fail_setup(error);

  Context ctx;
  ctx.start();
  const double budget_ms = args.seconds * 1e3;
  const auto t0 = Clock::now();
  int attempted = 0;
  int failed = 0;
  const auto note = [&](const std::string& failure) {
    if (failure.empty()) return;
    ++failed;
    std::fprintf(stderr, "request %d failed: %s\n", attempted, failure.c_str());
  };

  // Phase 1: untraced requests, the base of the tracing overhead.
  std::vector<double> untraced;
  while (ms_since(t0) < 0.3 * budget_ms || attempted < kMinPhaseRequests) {
    const JobRun r = run_job(*in, nullptr, attempted++, false);
    note(r.failure);
    if (r.failure.empty()) untraced.push_back(r.latency_ms);
  }

  // Phase 2: traced requests, each followed by the bare engine call.
  SpanLog log;
  BareEngine bare(*in, pool);
  std::vector<double> traced, submit_us, run_ms, bare_ms, scrape_us;
  JobRun last;
  std::uint64_t disconnects = 0, tile_resends = 0, shard_resends = 0;
  const int phase2_start = attempted;
  while (ms_since(t0) < 0.65 * budget_ms ||
         attempted - phase2_start < kMinPhaseRequests) {
    // Alternate which goes first, so neither always runs on warm caches.
    const int request = attempted++;
    std::string bare_failure;
    if (request % 2 == 0) bare_ms.push_back(bare.run(&log, request, &bare_failure));
    const JobRun r = run_job(*in, &log, request, true);
    if (request % 2 != 0) bare_ms.push_back(bare.run(&log, request, &bare_failure));
    note(r.failure);
    note(bare_failure);
    if (!r.failure.empty()) continue;
    traced.push_back(r.latency_ms);
    submit_us.push_back(r.submit_us);
    run_ms.push_back(r.run_ms);
    scrape_us.push_back(r.scrape_us);
    disconnects += static_cast<std::uint64_t>(r.remote_disconnects);
    tile_resends += r.tile_resends;
    shard_resends += r.shard_resends;
    last = r;
  }

  // Phase 3: the layer probes, repeated; each metric is a median.
  std::map<std::string, std::vector<double>> samples;
  for (int rep = 0; rep < kMinProbeReps || ms_since(t0) < budget_ms; ++rep) {
    std::string failure;
    const LayerSample s = probe_layers(*in, pool, log, attempted++, &failure);
    note(failure);
    for (const auto& [k, v] : s) samples[k].push_back(v);
  }
  std::map<std::string, double> probe;
  for (const auto& [k, v] : samples) probe[k] = median(v);

  const double p50 = median(traced);
  std::map<std::string, Metric> m;
  m["service.submit_us"] = {median(submit_us), "us"};
  m["service.run_overhead_ms"] = {median(run_ms) - median(bare_ms), "ms"};
  m["service.admitted_memory_mb"] = {static_cast<double>(last.memory_demand) / 1e6, "MB"};
  m["sim.costonly_run_ms"] = {probe["sim.costonly_run_ms"], "ms"};
  for (const char* k : {"core.fuse_ms", "core.screen_ms", "core.moment_ms",
                        "core.transform_ms", "linalg.eigen_ms",
                        "stream.fuse_ms", "stream.reader_stall_ms",
                        "stream.compute_stall_ms", "scp.msg_codec_ms",
                        "cluster.attach_ms", "distributed.screen_shard_ms",
                        "distributed.cov_shard_ms", "distributed.color_shard_ms"}) {
    m[k] = {probe[k], "ms"};
  }
  m["core.unique_set_size"] = {static_cast<double>(last.unique_set_size), "count"};
  m["core.screen_comparisons"] = {static_cast<double>(last.screen_comparisons), "count"};
  m["core.merge_comparisons"] = {static_cast<double>(last.merge_comparisons), "count"};
  m["linalg.jacobi_sweeps"] = {probe["linalg.jacobi_sweeps"], "count"};
  for (const auto& [k, v] : kernel_costs()) {
    m[k] = {v, k.find("flop") != std::string::npos ? "flop" : "bytes"};
  }
  m["hsi.read_mb_s"] = {probe["hsi.read_mb_s"], "MB/s"};
  m["hsi.bytes_read_per_job"] = {probe["hsi.bytes_read_per_job"], "bytes"};
  m["stream.chunks"] = {probe["stream.chunks"], "count"};
  m["stream.peak_buffer_mb"] = {probe["stream.peak_buffer_mb"], "MB"};
  m["scp.encode_ms_per_mb"] = {probe["scp.encode_ms_per_mb"], "ms/MB"};
  m["scp.decode_ms_per_mb"] = {probe["scp.decode_ms_per_mb"], "ms/MB"};
  // Only the remote job puts its pixels on the wire.
  const bool wire = w.kind == Kind::kRemote;
  m["scp.wire_bytes_per_job"] = {wire ? probe["replay.wire_bytes"] : 0.0, "bytes"};
  m["scp.codec_share_pct"] = {wire ? 100.0 * probe["replay.codec_ms"] / p50 : 0.0, "%"};
  m["net.frame_rtt_us"] = {probe["net.frame_rtt_us"], "us"};
  m["net.frame_mb_s"] = {probe["net.frame_mb_s"], "MB/s"};
  m["cluster.disconnects"] = {static_cast<double>(disconnects), "count"};
  m["cluster.tile_resends"] = {static_cast<double>(tile_resends), "count"};
  m["cluster.shard_resends"] = {static_cast<double>(shard_resends), "count"};
  m["obs.scrape_us"] = {median(scrape_us), "us"};
  m["trace.overhead_ms"] = {p50 - median(untraced), "ms"};

  const std::string trace_path = args.workdir + "/trace_" + w.name + ".json";
  log.write_chrome_trace(trace_path);
  char extra[256];
  std::snprintf(extra, sizeof(extra),
                ", \"untraced_jobs\": %zu, \"traced_jobs\": %zu, "
                "\"probe_passes\": %zu, \"spans\": %zu",
                untraced.size(), traced.size(),
                samples.empty() ? 0 : samples.begin()->second.size(),
                log.spans().size());
  ctx.print(w, args.seed, extra);
  std::fprintf(stderr, "%s traced: spans in %s; self time by span (ms):\n",
               w.name.c_str(), trace_path.c_str());
  for (const auto& [name, ms] : log.self_ms()) {
    std::fprintf(stderr, "  %-28s %10.1f\n", name.c_str(), ms);
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload resident|stream|remote --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const std::optional<Workload> w = find_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // One malloc arena: with glibc's per-thread arenas the high-water mark
  // depends on which arenas the short-lived service threads happen to
  // touch (bimodal run to run), not on what the program keeps live.
  mallopt(M_ARENA_MAX, 1);
  // Fixed mmap and trim thresholds, at the ceiling glibc's sliding ones
  // rise toward as large blocks are freed (32 MiB, twice that for
  // trimming). Sliding, they depend on the run's allocation history, so
  // whether a request's large buffers landed on fresh pages or on heap
  // pages still resident moved the per-request memory figure run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  std::filesystem::create_directories(args.workdir);
  rif::core::ThreadPool pool(kExecutionThreads);
  const int rc = args.trace ? run_traced(args, *w, pool) : run_untraced(args, *w, pool);
  // Scratch cube files are per run; the trace file stays for inspection.
  for (int i = 0; i < w->scenes; ++i) {
    const std::string cube = cube_file(args.workdir, *w, i);
    std::filesystem::remove(cube);
    std::filesystem::remove(cube + ".hdr");
  }
  return rc;
}
