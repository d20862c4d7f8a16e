// Portable SIMD kernel layer for the fusion hot paths.
//
// Every arithmetic inner loop of the pipeline — spectral-angle dot
// products, the one-candidate-vs-8-members screening kernel, the packed
// upper-triangle moment updates, and the truncated PCT projection — lives
// here, in exactly two forms:
//
//   * `kernels::scalar::*` — plain reference implementations, always
//     compiled. These are the oracle for the equivalence tests and the
//     code the dispatched entry points fall back to.
//   * `kernels::*` — the dispatched entry points. They indirect through a
//     per-tier function table selected at RUNTIME: each SIMD tier (AVX2 /
//     SSE2 / NEON) is compiled into its own translation unit with pinned
//     ISA flags, and startup picks the widest tier the host CPU supports
//     via cpuid (x86) / HWCAP (aarch64) — so a portable
//     (RIF_NATIVE_ARCH=OFF) binary still hits the AVX2 fast path on an
//     AVX2 host. Selection order: the `RIF_SIMD` environment override
//     (`scalar|sse2|avx2|neon`; ignored with a warning when the named tier
//     is absent or unsupported), then CPU detection best-first, then the
//     compile-time tier this TU was built for (the pre-runtime-dispatch
//     behavior, kept as the fallback for architectures with no dedicated
//     tier TU). `RIF_DISABLE_SIMD` builds compile no tier TUs at all and
//     always run scalar.
//
// Numerical contract: every kernel except `dot8f` accumulates in double,
// like the seed scalar code, but SIMD variants reassociate the summation
// (lane-parallel partial sums, possibly FMA-contracted). `dot8f` is the
// float-width twin of `dot8`: a screening pre-filter whose result only
// ever decides a lane when it clears the decision threshold by more than
// its worst-case rounding error (see UniqueSet::any_within); `dot8` stays
// the one kernel that decides borderline lanes. Within ONE process every
// engine — sequential, shared-memory, distributed, streamed — calls the
// same active table, so the oracle chain's bit-exactness (fuse_parallel ==
// fuse_streaming == sim == remote at equal tile and shard counts) is
// preserved; ACROSS tiers (runtime or compile-time), results agree within
// the documented tolerance contract (composite bytes within one
// quantisation level — see tests/kernels_test.cc). Because tier TUs carry pinned ISA flags, the
// same tier produces byte-identical results whether the build was
// -march=native or portable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rif::linalg::kernels {

/// Members per SoA screening block (see UniqueSet's member-block pack):
/// blocks hold 8 members band-major — pack[band * 8 + lane] — so one
/// candidate screens against 8 members with simultaneous fused dot
/// products.
inline constexpr int kScreenLanes = 8;

/// ACTIVE tier of the dispatched kernels — the one runtime selection (env
/// override, cpuid/HWCAP, compile-time fallback) landed on:
/// "avx2" | "sse2" | "neon" | "scalar".
const char* backend();

/// True when the dispatched kernels are vectorized (backend != "scalar").
bool simd_enabled();

/// Tier names this binary can run on this CPU, widest first; always ends
/// with "scalar".
std::vector<std::string> available_backends();

/// Force a tier by name. Returns false — and leaves the active tier
/// unchanged — when the name is unknown, the tier is not compiled into
/// this binary, or the CPU lacks it. Not meant for concurrent use with
/// running engines (tests and startup only).
bool set_backend(const char* name);

/// Re-run startup selection (RIF_SIMD override, detection, fallback) and
/// return the resulting active tier name. Tests use this to exercise the
/// env override in-process.
const char* reset_backend();

// --- scalar reference implementations (always available) --------------------

namespace scalar {

/// Dot product of two float vectors, accumulated in double.
double dot(const float* x, const float* y, int n);

/// Dot product of a double vector with a float vector (projection rows).
double dot_df(const double* x, const float* y, int n);

/// Dot product plus both squared norms in one pass (spectral_angle).
void dot_norm(const float* x, const float* y, int n, double* dot, double* nx2,
              double* ny2);

/// One candidate against one band-major 8-member block:
/// out[k] = sum_b pack[b * 8 + k] * pixel[b] for k in [0, 8).
void dot8(const float* pack, const float* pixel, int bands, double out[8]);

/// dot8 accumulated in float: out[k] = sum_b pack[b * 8 + k] * pixel[b]
/// with every product and partial sum rounded to float. Whatever the
/// summation order, |out[k] - exact| <= gamma_bands * sum_b |pack * pixel|
/// when no product overflows or underflows.
void dot8f(const float* pack, const float* pixel, int bands, float out[8]);

/// Rank-1 update of a packed upper triangle (row-major, dims rows):
/// upper[i, j] += sign * c[i] * c[j] for j >= i.
void rank1_update(double* upper, const double* c, int dims, double sign);

/// Rank-k update of a packed upper triangle from a column-major centered
/// block `cols` (dims columns of length `rows` each, column i at
/// cols + i * rows): upper[i, j] += sum_r cols[i][r] * cols[j][r].
void rank_k_update(double* upper, const double* cols, int dims, int rows);

/// Truncated projection of one pixel: out[c] = t[c] . pixel - bias[c],
/// where t is row-major comps x bands (doubles) and bias[c] = t[c] . mean.
void project(const double* t, int comps, int bands, const double* bias,
             const float* pixel, float* out);

}  // namespace scalar

// --- dispatched entry points -------------------------------------------------

double dot(const float* x, const float* y, int n);
double dot_df(const double* x, const float* y, int n);
void dot_norm(const float* x, const float* y, int n, double* dot, double* nx2,
              double* ny2);
void dot8(const float* pack, const float* pixel, int bands, double out[8]);
void dot8f(const float* pack, const float* pixel, int bands, float out[8]);
void rank1_update(double* upper, const double* c, int dims, double sign);
void rank_k_update(double* upper, const double* cols, int dims, int rows);
void project(const double* t, int comps, int bands, const double* bias,
             const float* pixel, float* out);

}  // namespace rif::linalg::kernels
