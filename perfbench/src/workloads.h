// The benchmark's workloads, the inputs a run derives from its seed, and
// one closed-loop request through the public service API.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/parallel/thread_pool.h"
#include "harness.h"
#include "hsi/scene.h"
#include "service/service.h"
#include "stream/streaming_engine.h"

namespace perfbench {

/// Threads of every host pool the benchmark builds: the service's
/// execution pool and the harness's own pool for references and probes.
inline constexpr int kExecutionThreads = 2;
/// Spectral bands of every scene (the paper's Fig. 4/5 cube depth).
inline constexpr int kBands = 105;

enum class Kind { kResident, kStream, kRemote };

struct Workload {
  std::string name;
  Kind kind = Kind::kResident;
  int width = 320;
  int height = 320;
  int workers = 4;           ///< job workers (leased nodes)
  int tiles_per_worker = 2;  ///< tiles = workers x tiles_per_worker
  int host_nodes = 4;        ///< ServiceConfig::worker_nodes
  int remote_workers = 0;    ///< in-process socket workers
  int chunk_lines = 16;      ///< streaming jobs only
  int queue_depth = 4;       ///< streaming jobs only
  /// Scenes an untraced run derives from its seed and cycles through, so
  /// its figures average over scene content rather than follow one scene.
  int scenes = 1;

  [[nodiscard]] int tiles() const { return workers * tiles_per_worker; }
  [[nodiscard]] std::int64_t pixels() const {
    return static_cast<std::int64_t>(width) * height;
  }
  [[nodiscard]] rif::hsi::CubeShape shape() const {
    return {width, height, kBands};
  }
};

std::optional<Workload> find_workload(const std::string& name);

/// Seed of scene `index` of a run; scene 0 uses the run's seed itself.
std::uint64_t scene_seed(std::uint64_t seed, int index);
/// The cube file of scene `index` of a run, under `workdir`.
std::string cube_file(const std::string& workdir, const Workload& w, int index);

/// Everything a run derives from its seed before timing starts.
struct Inputs {
  Workload w;
  /// The generated scene; a streaming run releases it after setup so the
  /// timed phase never holds the cube.
  std::unique_ptr<rif::hsi::Scene> scene;
  /// The cube written to disk (streaming jobs, and traced runs' file
  /// probes); empty when none was written.
  std::string cube_path;
  /// The composite every request must reproduce byte for byte.
  rif::hsi::RgbImage reference;
};

/// Generate scene `scene` of the run with seed `seed`, write its cube file
/// when the workload streams or `with_file` is set, compute the reference
/// composite and check it against the core::fuse_parallel oracle, then
/// run one warm-up request. nullopt (with `error` set) when any of it
/// fails.
std::optional<Inputs> make_inputs(const Workload& w, std::uint64_t seed,
                                  int scene, const std::string& workdir,
                                  bool with_file,
                                  rif::core::ThreadPool& pool,
                                  std::string* error);

rif::service::ServiceConfig service_config(const Workload& w);
rif::service::JobRequest job_request(const Inputs& in);
/// The streaming engine configuration a service streaming job runs with.
rif::stream::StreamingConfig streaming_config(const Workload& w);

/// One request's outcome. `failure` is empty when the request succeeded.
struct JobRun {
  std::string failure;
  double latency_ms = 0.0;  ///< submit() call to run() returning
  double submit_us = 0.0;
  double run_ms = 0.0;
  double scrape_us = 0.0;  ///< only when the scrape probe ran
  std::size_t unique_set_size = 0;
  std::uint64_t screen_comparisons = 0;
  std::uint64_t merge_comparisons = 0;
  std::uint64_t memory_demand = 0;  ///< bytes the scheduler admitted
  int remote_disconnects = 0;
  std::uint64_t tile_resends = 0;
  std::uint64_t shard_resends = 0;
};

/// One closed-loop request: a fresh FusionService (built before the timer
/// starts), one submit(), run(), and the composite check. With a span log
/// every step is recorded under `request`; `probe_scrape` additionally
/// times MetricsScraper::scrape_now on the finished service's registry.
JobRun run_job(const Inputs& in, SpanLog* log, int request, bool probe_scrape);

}  // namespace perfbench
