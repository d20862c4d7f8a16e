#include "workloads.h"

#include <cstdlib>
#include <vector>

#include "core/parallel/parallel_pct.h"
#include "hsi/cube_io.h"
#include "obs/metrics_scraper.h"

namespace perfbench {

using namespace rif;

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "resident") {
    w.kind = Kind::kResident;
    w.scenes = 8;
  } else if (name == "stream") {
    w.kind = Kind::kStream;
    w.width = 640;
    w.height = 640;
    w.scenes = 4;
  } else if (name == "remote") {
    // Two host nodes + two remote nodes: a 4-worker job's lease takes
    // both remote nodes, so its pixels travel the socket protocol.
    w.kind = Kind::kRemote;
    w.host_nodes = 2;
    w.remote_workers = 2;
    w.scenes = 8;
  } else {
    return std::nullopt;
  }
  return w;
}

std::uint64_t scene_seed(std::uint64_t seed, int index) {
  return seed + static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL;
}

std::string cube_file(const std::string& workdir, const Workload& w,
                      int index) {
  return workdir + "/" + w.name + "_" + std::to_string(index) + ".cube";
}

service::ServiceConfig service_config(const Workload& w) {
  service::ServiceConfig c;
  c.worker_nodes = w.host_nodes;
  c.execution_threads = kExecutionThreads;
  if (w.remote_workers > 0) {
    c.remote_workers = w.remote_workers;
    c.remote_spawn_local = true;
  }
  return c;
}

service::JobRequest job_request(const Inputs& in) {
  const Workload& w = in.w;
  service::JobRequest r;
  r.tenant = "bench";
  r.config.workers = w.workers;
  r.config.tiles_per_worker = w.tiles_per_worker;
  r.config.shape = w.shape();
  if (w.kind == Kind::kStream) {
    r.mode = service::JobMode::kStreaming;
    r.cube_path = in.cube_path;
    r.chunk_lines = w.chunk_lines;
    r.queue_depth = w.queue_depth;
  } else {
    r.config.mode = core::ExecutionMode::kFull;
    r.config.cube = &in.scene->cube;
  }
  return r;
}

stream::StreamingConfig streaming_config(const Workload& w) {
  stream::StreamingConfig c;
  c.chunk_lines = w.chunk_lines;
  c.queue_depth = w.queue_depth;
  c.tiles_per_chunk = w.tiles();
  return c;
}

namespace {

/// The repository's cross-engine tolerance: identical unique set, every
/// composite byte within one quantisation level.
bool within_tolerance(const hsi::RgbImage& a, std::size_t a_unique,
                      const core::PctResult& oracle) {
  if (a_unique != oracle.unique_set_size) return false;
  if (a.data.size() != oracle.composite.data.size()) return false;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    if (std::abs(int(a.data[i]) - int(oracle.composite.data[i])) > 1) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<Inputs> make_inputs(const Workload& w, std::uint64_t seed,
                                  int scene, const std::string& workdir,
                                  bool with_file,
                                  core::ThreadPool& pool, std::string* error) {
  Inputs in;
  in.w = w;
  hsi::SceneConfig sc;
  sc.width = w.width;
  sc.height = w.height;
  sc.bands = kBands;
  sc.seed = scene_seed(seed, scene);
  in.scene = std::make_unique<hsi::Scene>(hsi::generate_scene(sc));
  const hsi::ImageCube& cube = in.scene->cube;

  if (w.kind == Kind::kStream || with_file) {
    in.cube_path = cube_file(workdir, w, scene);
    if (!hsi::save_cube(in.cube_path, cube, hsi::Interleave::kBip,
                        in.scene->wavelengths)) {
      *error = "cannot write " + in.cube_path;
      return std::nullopt;
    }
  }

  // Oracle chain: the remote path must match fuse_parallel byte for byte
  // at the same tile and covariance-shard counts; the resident and stream
  // engines must match their own reference exactly and fuse_parallel at
  // matched tile boundaries within the cross-engine tolerance.
  core::ParallelPctConfig oracle_cfg;
  oracle_cfg.threads = kExecutionThreads;
  oracle_cfg.tiles = w.tiles();
  oracle_cfg.cov_shards = w.workers;
  switch (w.kind) {
    case Kind::kResident: {
      const core::PctResult oracle = core::fuse_parallel(cube, pool, oracle_cfg);
      core::ParallelPctConfig own;
      own.tiles = w.tiles();
      core::PctResult r = core::fuse_parallel_fused(cube, pool, own);
      if (!within_tolerance(r.composite, r.unique_set_size, oracle)) {
        *error = "fused reference outside the fuse_parallel tolerance";
        return std::nullopt;
      }
      in.reference = std::move(r.composite);
      break;
    }
    case Kind::kStream: {
      // Chunks x sub-tiles line up with this many in-memory tiles.
      if (w.height % w.chunk_lines != 0) {
        *error = "stream height must be a multiple of chunk_lines";
        return std::nullopt;
      }
      oracle_cfg.tiles = w.height / w.chunk_lines * w.tiles();
      const core::PctResult oracle = core::fuse_parallel(cube, pool, oracle_cfg);
      auto r = stream::fuse_streaming(in.cube_path, pool, streaming_config(w));
      if (!r || !within_tolerance(r->composite, r->unique_set_size, oracle)) {
        *error = "streamed reference outside the fuse_parallel tolerance";
        return std::nullopt;
      }
      in.reference = std::move(r->composite);
      break;
    }
    case Kind::kRemote:
      oracle_cfg.cov_shards = w.remote_workers;
      in.reference = core::fuse_parallel(cube, pool, oracle_cfg).composite;
      break;
  }

  const JobRun warm = run_job(in, nullptr, 0, false);
  if (!warm.failure.empty()) {
    *error = "warm-up request failed: " + warm.failure;
    return std::nullopt;
  }
  return in;
}

JobRun run_job(const Inputs& in, SpanLog* log, int request,
               bool probe_scrape) {
  JobRun out;
  ScopedSpan whole(log, "request", request);
  std::optional<service::FusionService> svc;
  service::JobRequest req = job_request(in);
  {
    ScopedSpan s(log, "service.construct", request);
    svc.emplace(service_config(in.w));
  }

  const auto t0 = Clock::now();
  service::SubmitResult sub;
  {
    ScopedSpan s(log, "service.submit", request);
    sub = svc->submit(std::move(req));
  }
  const auto t_submitted = Clock::now();
  service::ServiceReport rep;
  if (sub.accepted()) {
    ScopedSpan s(log, "service.run", request);
    rep = svc->run();
  }
  const auto t1 = Clock::now();
  out.latency_ms = ms_between(t0, t1);
  out.submit_us = ms_between(t0, t_submitted) * 1e3;
  out.run_ms = ms_between(t_submitted, t1);

  {
    ScopedSpan s(log, "check", request);
    const auto id = static_cast<std::size_t>(sub.id);
    if (!sub.accepted()) {
      out.failure = std::string("submit rejected: ") +
                    service::to_string(sub.rejected);
    } else if (id >= rep.jobs.size() || !rep.jobs[id].completed) {
      out.failure = "job did not complete";
    } else {
      const service::JobRecord& rec = rep.jobs[id];
      out.unique_set_size = rec.outcome.unique_set_size;
      out.screen_comparisons = rec.outcome.screen_comparisons;
      out.merge_comparisons = rec.outcome.merge_comparisons;
      out.memory_demand = rec.memory_demand;
      out.remote_disconnects = rep.remote_disconnects;
      if (in.w.kind == Kind::kRemote &&
          (!rec.remote_executed || rep.remote_jobs != 1 ||
           rep.remote_fallbacks != 0)) {
        out.failure = "remote job fell back to the host pool";
      } else if (rec.outcome.composite.data != in.reference.data) {
        out.failure = "composite differs from the reference";
      }
    }
  }
  out.tile_resends = svc->metrics().counter("remote.tile_resends").value();
  out.shard_resends = svc->metrics().counter("remote.shard_resends").value();

  if (probe_scrape) {
    ScopedSpan s(log, "obs.scrape", request);
    obs::MetricsScraper scraper(svc->metrics());
    std::vector<double> us;
    for (int i = 0; i < 9; ++i) {
      const auto t = Clock::now();
      scraper.scrape_now();
      us.push_back(ms_since(t) * 1e3);
    }
    out.scrape_us = median(us);
  }
  {
    ScopedSpan s(log, "service.destroy", request);
    svc.reset();
  }
  return out;
}

}  // namespace perfbench
