// Internal function table of the runtime-dispatched kernel layer.
//
// Each SIMD tier (AVX2 / SSE2 / NEON) lives in its own translation unit
// compiled with exactly that tier's ISA flags — pinned, not inherited from
// the build's -march — so one portable binary carries every tier its
// architecture can express and the SAME object code runs whether the build
// was -march=native or baseline. kernels.cc picks the active table once at
// startup (RIF_SIMD env override, else cpuid/HWCAP detection, else the
// compile-time fallback) and the public entry points indirect through it.
//
// This header is internal to src/linalg/: engines call the dispatched
// entry points in kernels.h, never a table directly. Tests reach tables
// through set_backend().
#pragma once

namespace rif::linalg::kernels {

struct KernelTable {
  const char* name;  ///< tier id: "avx2" | "sse2" | "neon" | "scalar"
  double (*dot)(const float*, const float*, int);
  double (*dot_df)(const double*, const float*, int);
  void (*dot_norm)(const float*, const float*, int, double*, double*,
                   double*);
  void (*dot8)(const float*, const float*, int, double*);
  void (*dot8f)(const float*, const float*, int, float*);
  void (*rank1_update)(double*, const double*, int, double);
  void (*rank_k_update)(double*, const double*, int, int);
  void (*project)(const double*, int, int, const double*, const float*,
                  float*);
};

/// Per-tier tables. nullptr when the tier's TU compiled empty (foreign
/// architecture, or RIF_DISABLE_SIMD).
const KernelTable* avx2_table();
const KernelTable* sse2_table();
const KernelTable* neon_table();

/// The compile-time fallback table kernels.cc carries (the scalar table
/// when the build had no vector ISA). Exposed so the parity tests can pin
/// "runtime tier X == compile-time tier X, bit for bit".
const KernelTable& compiled_table();

}  // namespace rif::linalg::kernels
