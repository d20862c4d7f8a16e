// Shared-memory speed-up (paper §4 text claim).
//
// "On a shared memory system, the concurrent algorithm presented here
// operates within 5% of linear speedup on a wide range of problem sizes
// and machine sizes. The advantage ... is that no communication overhead
// [is] involved."
//
// Two reproductions:
//  1. The simulated SMP: same job, SmpNetwork transport (fixed ~2 us
//     hand-off, no bandwidth term), P CPUs. The shared-memory variant
//     merges into a shared unique set, so the manager's merge charge is
//     omitted from the critical path by giving the merge a zero-cost
//     network and fast hand-offs.
//  2. A real wall-clock measurement of the shared-memory engine,
//     whose blocked fold parallelizes the merge, on this machine
//     (informative, not calibrated).
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "core/parallel/parallel_pct.h"
#include "hsi/scene.h"

using namespace rif;

int main() {
  std::printf("=== SMP speed-up (paper SS4 text) ===\n\n");
  std::printf("--- simulated shared-memory machine, 320x320x105 ---\n");
  Table sim_table({"P", "time(s)", "speedup", "eff(%)"});
  double t1 = 0.0;
  for (const int p : {1, 2, 4, 8, 16}) {
    core::FusionJobConfig config = bench::paper_testbed(p);
    config.network = core::NetworkKind::kSmp;
    // On shared memory the unique-set merge is a concurrent insertion into
    // a shared structure, not a serialized manager step.
    config.cost.merge_cost_scale = 1.0 / p;
    const core::FusionReport r = run_fusion_job(config);
    if (!r.completed) {
      std::printf("P=%d did not complete!\n", p);
      return 1;
    }
    if (p == 1) t1 = r.elapsed_seconds;
    const double speedup = t1 / r.elapsed_seconds;
    sim_table.add_row({strf("%d", p), strf("%.1f", r.elapsed_seconds),
                       strf("%.2f", speedup),
                       strf("%.0f", 100.0 * speedup / p)});
  }
  sim_table.print();
  std::printf("paper: within 5%% of linear on shared memory.\n\n");

  std::printf("--- real thread-pool implementation on this host ---\n");
  hsi::SceneConfig scfg;
  scfg.width = 320;
  scfg.height = 320;
  scfg.bands = 105;
  scfg.seed = 4;
  const hsi::Scene scene = hsi::generate_scene(scfg);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  Table real_table({"threads", "wall(ms)", "speedup"});
  double base_ms = 0.0;
  for (int threads = 1; threads <= std::min(hw, 8); threads *= 2) {
    core::ParallelPctConfig pcfg;
    pcfg.threads = threads;
    pcfg.tiles = 32;
    const auto start = std::chrono::steady_clock::now();
    const auto result = core::fuse_parallel(scene.cube, pcfg);
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    if (threads == 1) base_ms = ms;
    real_table.add_row({strf("%d", threads), strf("%.0f", ms),
                        strf("%.2f", base_ms / ms)});
    (void)result;
  }
  real_table.print();
  std::printf("(wall-clock on this host; shape, not calibrated seconds)\n");
  return 0;
}
