// Kernel microbenchmarks: scalar reference vs dispatched SIMD.
//
// Times the fusion hot-path kernels (screening dots, packed-triangle
// moment updates, spectral-angle dot+norms, truncated projection) in both
// forms the kernel layer ships — `kernels::scalar::*` (the seed's scalar
// arithmetic) and the dispatched `kernels::*` (AVX2/SSE2/NEON when the
// build targets them) — plus the screening scan with its float pre-filter
// against the same scan on the double `dot8` alone, and end-to-end wall
// time of the two shared-memory engines at 1 and 4 threads. The
// acceptance bar for the SIMD layer is >=2x single-thread on the
// screening and moment kernels at >=32 bands.
//
// Machine-readable results go to BENCH_kernels.json so later PRs can track
// the perf trajectory. `--smoke` shrinks the timing budget for CI.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "hsi/scene.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "support/rng.h"
#include "support/table.h"

using namespace rif;
namespace kernels = linalg::kernels;

namespace {

/// Consumed results land here so the optimizer cannot delete a timed loop.
volatile double g_sink = 0.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Nanoseconds per call: repeat `fn` until `budget_s` of wall time.
double time_ns(double budget_s, const std::function<void()>& fn) {
  fn();  // warm up (first-touch, caches)
  std::uint64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int k = 0; k < 32; ++k) fn();
    iters += 32;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(iters);
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.05, 0.9));
  return v;
}

struct KernelRow {
  std::string name;
  int bands = 0;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  [[nodiscard]] double speedup() const {
    return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  }
};

/// One candidate against kMembers set members: the any_within scan. The
/// scalar form is the seed's member-at-a-time AoS dot; the SIMD form is
/// the 8-member band-major pack kernel.
KernelRow bench_screen(int bands, double budget_s) {
  constexpr int kMembers = 512;
  const auto members =
      random_floats(static_cast<std::size_t>(kMembers) * bands, 11);
  const auto pixel = random_floats(static_cast<std::size_t>(bands), 12);
  std::vector<double> inv_norms(kMembers);
  for (int m = 0; m < kMembers; ++m) {
    const float* mem = members.data() + static_cast<std::size_t>(m) * bands;
    inv_norms[m] = 1.0 / std::sqrt(kernels::scalar::dot(mem, mem, bands));
  }
  // Band-major 8-member blocks (the UniqueSet pack layout).
  constexpr int kLanes = kernels::kScreenLanes;
  std::vector<float> pack(members.size());
  for (int m = 0; m < kMembers; ++m) {
    for (int b = 0; b < bands; ++b) {
      pack[(static_cast<std::size_t>(m / kLanes) * bands + b) * kLanes +
           m % kLanes] = members[static_cast<std::size_t>(m) * bands + b];
    }
  }
  const double pixel_inv =
      1.0 / std::sqrt(kernels::scalar::dot(pixel.data(), pixel.data(), bands));
  const double threshold = 2.0;  // cosines are <= 1: scans the whole set

  KernelRow row{"screen", bands, 0.0, 0.0};
  row.scalar_ns = time_ns(budget_s, [&] {
    double sum = 0.0;
    for (int m = 0; m < kMembers; ++m) {
      const double dot = kernels::scalar::dot(
          members.data() + static_cast<std::size_t>(m) * bands,
          pixel.data(), bands);
      const double cosine = dot * inv_norms[m] * pixel_inv;
      if (cosine >= threshold) break;
      sum += cosine;
    }
    g_sink = g_sink + sum;
  });
  row.simd_ns = time_ns(budget_s, [&] {
    double sum = 0.0;
    double dots[kLanes];
    for (int m = 0; m < kMembers; m += kLanes) {
      kernels::dot8(pack.data() +
                        static_cast<std::size_t>(m / kLanes) * bands * kLanes,
                    pixel.data(), bands, dots);
      bool hit = false;
      for (int k = 0; k < kLanes; ++k) {
        const double cosine = dots[k] * inv_norms[m + k] * pixel_inv;
        if (cosine >= threshold) {
          hit = true;
          break;
        }
        sum += cosine;
      }
      if (hit) break;
    }
    g_sink = g_sink + sum;
  });
  return row;
}

/// The screening scan as UniqueSet::any_within runs it — float dot8f
/// pre-filter, double dot8 only for borderline lanes — against the same
/// scan deciding every lane with the double dot8, over a 512-member set at
/// the paper's 0.05 rad threshold, for a candidate that misses every
/// member (so both scan the whole set).
struct FilterRow {
  int bands = 0;
  double double_ns = 0.0;
  double filtered_ns = 0.0;
  [[nodiscard]] double speedup() const {
    return filtered_ns > 0.0 ? double_ns / filtered_ns : 0.0;
  }
};

FilterRow bench_screen_filter(int bands, double budget_s) {
  constexpr int kMembers = 512;
  constexpr double kThreshold = 0.05;
  constexpr int kLanes = kernels::kScreenLanes;
  core::UniqueSet set(bands, kThreshold);
  for (std::uint64_t seed = 100; set.size() < kMembers; ++seed) {
    set.screen(random_floats(static_cast<std::size_t>(bands), seed));
  }
  std::vector<float> pixel;
  double pixel_inv = 0.0;
  for (std::uint64_t seed = 50;; ++seed) {
    pixel = random_floats(static_cast<std::size_t>(bands), seed);
    pixel_inv = 1.0 / std::sqrt(kernels::dot(pixel.data(), pixel.data(),
                                             bands));
    if (!set.any_within(pixel, pixel_inv, 0, set.size())) break;
  }
  std::vector<float> pack(static_cast<std::size_t>(kMembers) * bands);
  for (int m = 0; m < kMembers; ++m) {
    const auto member = set.member(static_cast<std::size_t>(m));
    for (int b = 0; b < bands; ++b) {
      pack[(static_cast<std::size_t>(m / kLanes) * bands + b) * kLanes +
           m % kLanes] = member[b];
    }
  }
  const double cos_threshold = std::cos(kThreshold);

  FilterRow row{bands, 0.0, 0.0};
  row.double_ns = time_ns(budget_s, [&] {
    bool hit = false;
    double dots[kLanes] = {};
    for (int m = 0; m < kMembers && !hit; m += kLanes) {
      kernels::dot8(pack.data() +
                        static_cast<std::size_t>(m / kLanes) * bands * kLanes,
                    pixel.data(), bands, dots);
      for (int k = 0; k < kLanes && !hit; ++k) {
        hit = dots[k] * set.inv_norm(static_cast<std::size_t>(m + k)) *
                  pixel_inv >=
              cos_threshold;
      }
    }
    g_sink = g_sink + (hit ? 1.0 : 0.0);
  });
  row.filtered_ns = time_ns(budget_s, [&] {
    g_sink = g_sink + (set.any_within(pixel, pixel_inv, 0, set.size())
                           ? 1.0
                           : 0.0);
  });
  return row;
}

/// One packed-triangle moment sweep over a centered 32-pixel block (the
/// MomentAccumulator::add_block / CovarianceAccumulator::add_block core).
KernelRow bench_moment(int bands, double budget_s) {
  constexpr int kRows = 32;
  Rng rng(21);
  std::vector<double> cols(static_cast<std::size_t>(bands) * kRows);
  for (auto& v : cols) v = rng.uniform(-0.5, 0.5);
  std::vector<double> upper(
      static_cast<std::size_t>(bands) * (bands + 1) / 2, 0.0);

  KernelRow row{"moment", bands, 0.0, 0.0};
  row.scalar_ns = time_ns(budget_s, [&] {
    kernels::scalar::rank_k_update(upper.data(), cols.data(), bands, kRows);
    g_sink = g_sink + upper[0];
  });
  std::fill(upper.begin(), upper.end(), 0.0);
  row.simd_ns = time_ns(budget_s, [&] {
    kernels::rank_k_update(upper.data(), cols.data(), bands, kRows);
    g_sink = g_sink + upper[0];
  });
  return row;
}

/// Spectral-angle dot + squared norms (the screening norm pass).
KernelRow bench_dot_norm(int bands, double budget_s) {
  const auto x = random_floats(static_cast<std::size_t>(bands), 31);
  const auto y = random_floats(static_cast<std::size_t>(bands), 32);
  KernelRow row{"dot_norm", bands, 0.0, 0.0};
  row.scalar_ns = time_ns(budget_s, [&] {
    double d, nx, ny;
    kernels::scalar::dot_norm(x.data(), y.data(), bands, &d, &nx, &ny);
    g_sink = g_sink + d + nx + ny;
  });
  row.simd_ns = time_ns(budget_s, [&] {
    double d, nx, ny;
    kernels::dot_norm(x.data(), y.data(), bands, &d, &nx, &ny);
    g_sink = g_sink + d + nx + ny;
  });
  return row;
}

/// Truncated PCT projection of a 64-pixel block into 3 components.
KernelRow bench_project(int bands, double budget_s) {
  constexpr int kComps = 3;
  constexpr int kPixels = 64;
  Rng rng(41);
  linalg::Matrix t(kComps, bands);
  for (int c = 0; c < kComps; ++c) {
    for (int b = 0; b < bands; ++b) t(c, b) = rng.uniform(-1.0, 1.0);
  }
  const std::vector<double> bias(kComps, 0.4);
  const auto pixels =
      random_floats(static_cast<std::size_t>(kPixels) * bands, 42);
  std::vector<float> out(static_cast<std::size_t>(kPixels) * kComps);

  KernelRow row{"project", bands, 0.0, 0.0};
  row.scalar_ns = time_ns(budget_s, [&] {
    for (int p = 0; p < kPixels; ++p) {
      kernels::scalar::project(t.data(), kComps, bands, bias.data(),
                               pixels.data() + static_cast<std::size_t>(p) *
                                                   bands,
                               out.data() + static_cast<std::size_t>(p) *
                                                kComps);
    }
    g_sink = g_sink + out[0];
  });
  row.simd_ns = time_ns(budget_s, [&] {
    for (int p = 0; p < kPixels; ++p) {
      kernels::project(t.data(), kComps, bands, bias.data(),
                       pixels.data() + static_cast<std::size_t>(p) * bands,
                       out.data() + static_cast<std::size_t>(p) * kComps);
    }
    g_sink = g_sink + out[0];
  });
  return row;
}

/// End-to-end wall time of the two shared-memory engines — the carried-
/// through effect of the kernels — at `threads`, with the paper's 0.05 rad
/// screening threshold (PctConfig's default).
struct EngineTimes {
  int width = 0, height = 0, bands = 0, tiles = 0, threads = 0;
  double two_pass_ms = 0.0;
  double fused_ms = 0.0;
};

EngineTimes bench_engines(const hsi::Scene& scene, int threads, bool smoke) {
  core::ParallelPctConfig config;
  config.threads = threads;
  config.tiles = 8;

  EngineTimes times;
  times.width = scene.cube.width();
  times.height = scene.cube.height();
  times.bands = scene.cube.bands();
  times.tiles = config.tiles;
  times.threads = threads;
  core::ThreadPool pool(config.threads);
  const int reps = smoke ? 1 : 3;
  double best_two = 1e300, best_fused = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    const auto a = core::fuse_parallel(scene.cube, pool, config);
    best_two = std::min(best_two, seconds_since(t0) * 1e3);
    g_sink = g_sink + static_cast<double>(a.unique_set_size);
    t0 = std::chrono::steady_clock::now();
    const auto b = core::fuse_parallel_fused(scene.cube, pool, config);
    best_fused = std::min(best_fused, seconds_since(t0) * 1e3);
    g_sink = g_sink + static_cast<double>(b.unique_set_size);
  }
  times.two_pass_ms = best_two;
  times.fused_ms = best_fused;
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double budget_s = smoke ? 0.01 : 0.2;

  std::printf("=== Fusion kernel microbenchmarks ===\n");
  std::printf("backend: %s (dispatched) vs scalar reference%s\n\n",
              kernels::backend(),
              kernels::simd_enabled()
                  ? ""
                  : "  [RIF_DISABLE_SIMD or no vector ISA: expect ~1x]");

  std::vector<KernelRow> rows;
  std::vector<FilterRow> filter_rows;
  for (const int bands : {32, 105, 210}) {
    rows.push_back(bench_screen(bands, budget_s));
    rows.push_back(bench_moment(bands, budget_s));
    rows.push_back(bench_dot_norm(bands, budget_s));
    rows.push_back(bench_project(bands, budget_s));
    filter_rows.push_back(bench_screen_filter(bands, budget_s));
  }

  Table table({"kernel", "bands", "scalar(ns)", "simd(ns)", "speedup"});
  for (const auto& r : rows) {
    table.add_row({r.name, strf("%d", r.bands), strf("%.1f", r.scalar_ns),
                   strf("%.1f", r.simd_ns), strf("%.2fx", r.speedup())});
  }
  table.print();

  std::printf("\nscreening scan, 512 members, 0.05 rad, full-set miss:\n");
  Table filter_table({"bands", "double dot8(ns)", "filtered(ns)", "speedup"});
  for (const auto& r : filter_rows) {
    filter_table.add_row({strf("%d", r.bands), strf("%.1f", r.double_ns),
                          strf("%.1f", r.filtered_ns),
                          strf("%.2fx", r.speedup())});
  }
  filter_table.print();

  // The resident benchmark's scene size (hsi::SceneConfig's defaults
  // otherwise); --smoke shrinks it.
  hsi::SceneConfig scene_cfg;
  scene_cfg.width = smoke ? 32 : 320;
  scene_cfg.height = smoke ? 32 : 320;
  scene_cfg.bands = smoke ? 32 : 105;
  const auto scene = hsi::generate_scene(scene_cfg);
  std::vector<EngineTimes> engines;
  for (const int threads : {1, 4}) {
    engines.push_back(bench_engines(scene, threads, smoke));
    const EngineTimes& e = engines.back();
    std::printf("end-to-end (%d thread%s, %dx%dx%d, %d tiles): "
                "two-pass %.1f ms, fused %.1f ms\n",
                e.threads, e.threads == 1 ? "" : "s", e.width, e.height,
                e.bands, e.tiles, e.two_pass_ms, e.fused_ms);
  }

  // The acceptance bar: screening and moment kernels >=2x at >=32 bands.
  if (kernels::simd_enabled() && !smoke) {
    bool met = true;
    for (const auto& r : rows) {
      if ((r.name == "screen" || r.name == "moment") && r.speedup() < 2.0) {
        std::printf("NOTE: %s @%d bands below 2x (%.2fx)\n", r.name.c_str(),
                    r.bands, r.speedup());
        met = false;
      }
    }
    std::printf("acceptance (screen+moment >=2x): %s\n",
                met ? "MET" : "NOT MET");
  }

  std::FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out == nullptr) {
    std::printf("cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(out, "  \"backend\": \"%s\",\n", kernels::backend());
  std::fprintf(out, "  \"simd\": %s,\n",
               kernels::simd_enabled() ? "true" : "false");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"bands\": %d, \"scalar_ns\": %.2f, "
                 "\"simd_ns\": %.2f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.bands, r.scalar_ns, r.simd_ns, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"screen_filter\": [\n");
  for (std::size_t i = 0; i < filter_rows.size(); ++i) {
    const auto& r = filter_rows[i];
    std::fprintf(out,
                 "    {\"bands\": %d, \"double_ns\": %.2f, "
                 "\"filtered_ns\": %.2f, \"speedup\": %.3f}%s\n",
                 r.bands, r.double_ns, r.filtered_ns, r.speedup(),
                 i + 1 < filter_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"engines\": [\n");
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto& e = engines[i];
    std::fprintf(out,
                 "    {\"scene\": \"%dx%dx%d\", \"threads\": %d, "
                 "\"tiles\": %d, \"two_pass_ms\": %.3f, "
                 "\"fused_ms\": %.3f}%s\n",
                 e.width, e.height, e.bands, e.threads, e.tiles,
                 e.two_pass_ms, e.fused_ms,
                 i + 1 < engines.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}
