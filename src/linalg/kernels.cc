#include "linalg/kernels.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "linalg/kernels_table.h"
#include "support/log.h"

// Compile-time fallback tier. RIF_DISABLE_SIMD (a CMake option) forces the
// scalar reference implementations everywhere; otherwise the widest ISA
// the compiler was asked to target is compiled INTO THIS TU as the
// fallback the runtime dispatcher uses when no dedicated tier TU matches
// the host (runtime dispatch normally wins — see the tier selection
// below). SSE2 is the x86-64 baseline; 64-bit ARM gets NEON (32-bit NEON
// has no double lanes, so it stays scalar — accumulation is in double
// everywhere, matching the seed's numerics).
#if !defined(RIF_DISABLE_SIMD) && defined(__AVX2__)
#define RIF_KERNELS_AVX2 1
#define RIF_KERNELS_SIMD 1
#define RIF_KERNELS_TIER_NAME "avx2"
#elif !defined(RIF_DISABLE_SIMD) && \
    (defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#define RIF_KERNELS_SSE2 1
#define RIF_KERNELS_SIMD 1
#define RIF_KERNELS_TIER_NAME "sse2"
#elif !defined(RIF_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define RIF_KERNELS_NEON 1
#define RIF_KERNELS_SIMD 1
#define RIF_KERNELS_TIER_NAME "neon"
#endif

#if defined(RIF_KERNELS_AVX2) || defined(RIF_KERNELS_SSE2)
#include <immintrin.h>
#elif defined(RIF_KERNELS_NEON)
#include <arm_neon.h>
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#if __has_include(<asm/hwcap.h>)
#include <asm/hwcap.h>
#endif
#endif

namespace rif::linalg::kernels {

// --- scalar reference implementations ----------------------------------------

namespace scalar {

double dot(const float* x, const float* y, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

double dot_df(const double* x, const float* y, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += x[i] * static_cast<double>(y[i]);
  return acc;
}

void dot_norm(const float* x, const float* y, int n, double* dot, double* nx2,
              double* ny2) {
  double d = 0.0, nx = 0.0, ny = 0.0;
  for (int i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    d += xi * yi;
    nx += xi * xi;
    ny += yi * yi;
  }
  *dot = d;
  *nx2 = nx;
  *ny2 = ny;
}

void dot8(const float* pack, const float* pixel, int bands, double out[8]) {
  for (int k = 0; k < kScreenLanes; ++k) {
    double acc = 0.0;
    for (int b = 0; b < bands; ++b) {
      acc += static_cast<double>(pack[b * kScreenLanes + k]) *
             static_cast<double>(pixel[b]);
    }
    out[k] = acc;
  }
}

void dot8f(const float* pack, const float* pixel, int bands, float out[8]) {
  for (int k = 0; k < kScreenLanes; ++k) {
    float acc = 0.0f;
    for (int b = 0; b < bands; ++b) {
      acc += pack[b * kScreenLanes + k] * pixel[b];
    }
    out[k] = acc;
  }
}

void rank1_update(double* upper, const double* c, int dims, double sign) {
  std::size_t idx = 0;
  for (int i = 0; i < dims; ++i) {
    const double ci = sign * c[i];
    for (int j = i; j < dims; ++j) upper[idx++] += ci * c[j];
  }
}

void rank_k_update(double* upper, const double* cols, int dims, int rows) {
  std::size_t idx = 0;
  for (int i = 0; i < dims; ++i) {
    const double* ci = cols + static_cast<std::size_t>(i) * rows;
    for (int j = i; j < dims; ++j) {
      const double* cj = cols + static_cast<std::size_t>(j) * rows;
      double acc = 0.0;
      for (int r = 0; r < rows; ++r) acc += ci[r] * cj[r];
      upper[idx++] += acc;
    }
  }
}

void project(const double* t, int comps, int bands, const double* bias,
             const float* pixel, float* out) {
  for (int c = 0; c < comps; ++c) {
    out[c] =
        static_cast<float>(dot_df(t + static_cast<std::size_t>(c) * bands,
                                  pixel, bands) -
                           bias[c]);
  }
}

}  // namespace scalar

// --- compile-time fallback tier ----------------------------------------------

#if defined(RIF_KERNELS_SIMD)
namespace {
namespace compiled_impl {
#include "linalg/kernels_simd.inc"
}  // namespace compiled_impl
}  // namespace
#endif

// --- runtime tier selection --------------------------------------------------

namespace {

const KernelTable& scalar_tbl() {
  static const KernelTable table = {
      "scalar",          &scalar::dot,           &scalar::dot_df,
      &scalar::dot_norm, &scalar::dot8,          &scalar::dot8f,
      &scalar::rank1_update, &scalar::rank_k_update, &scalar::project};
  return table;
}

/// The tier this TU's compile flags selected (scalar when none).
const KernelTable& compiled_tbl() {
#if defined(RIF_KERNELS_SIMD)
  return compiled_impl::kTierTable;
#else
  return scalar_tbl();
#endif
}

/// Does THIS host's CPU support the named tier's ISA? cpuid on x86 (via
/// the compiler's cached cpu model), HWCAP on Linux/aarch64 (Advanced
/// SIMD is architecturally mandatory there, so the auxval check is a
/// formality that also covers exotic kernels).
bool cpu_supports(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return true;
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (std::strcmp(name, "avx2") == 0) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  if (std::strcmp(name, "sse2") == 0) return true;  // x86-64 baseline
#endif
#if defined(__aarch64__)
  if (std::strcmp(name, "neon") == 0) {
#if defined(__linux__) && defined(HWCAP_ASIMD)
    return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
    return true;  // Advanced SIMD is mandatory on AArch64
#endif
  }
#endif
  return false;
}

struct TierDef {
  const char* name;
  const KernelTable* (*get)();
};

/// Dedicated tier TUs, widest first.
constexpr TierDef kTiers[] = {
    {"avx2", &avx2_table},
    {"sse2", &sse2_table},
    {"neon", &neon_table},
};

/// Resolve a tier name to a runnable table, or nullptr. Checks the
/// dedicated TUs first, then the compile-time fallback (which covers both
/// "scalar" and any exotic compiled tier), so every name available_
/// backends() lists resolves here.
const KernelTable* find_tier(const char* name) {
  for (const TierDef& tier : kTiers) {
    if (std::strcmp(name, tier.name) != 0) continue;
    const KernelTable* table = tier.get();
    if (table != nullptr && cpu_supports(tier.name)) return table;
    return nullptr;  // tier known but absent/unsupported here
  }
  if (std::strcmp(name, "scalar") == 0) return &scalar_tbl();
  if (std::strcmp(name, compiled_tbl().name) == 0) return &compiled_tbl();
  return nullptr;
}

/// Startup selection: RIF_SIMD override, else widest supported dedicated
/// tier, else the compile-time fallback.
const KernelTable* select_default() {
  if (const char* env = std::getenv("RIF_SIMD"); env != nullptr && *env) {
    if (const KernelTable* table = find_tier(env)) return table;
    RIF_LOG_WARN("kernels", "RIF_SIMD=" << env
                                        << " is not available in this "
                                           "binary on this CPU; falling "
                                           "back to runtime detection");
  }
  for (const TierDef& tier : kTiers) {
    const KernelTable* table = tier.get();
    if (table != nullptr && cpu_supports(tier.name)) return table;
  }
  return &compiled_tbl();
}

/// Active table. Lazily initialized on first kernel call; the benign
/// initialization race is harmless because every thread computes the same
/// answer (selection is a pure function of env + cpu + binary).
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = select_default();
    g_active.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

const KernelTable& compiled_table() { return compiled_tbl(); }

const char* backend() { return active()->name; }

bool simd_enabled() { return std::strcmp(active()->name, "scalar") != 0; }

std::vector<std::string> available_backends() {
  std::vector<std::string> out;
  for (const TierDef& tier : kTiers) {
    if (tier.get() != nullptr && cpu_supports(tier.name)) {
      out.emplace_back(tier.name);
    }
  }
  const char* compiled = compiled_tbl().name;
  bool have_compiled = std::strcmp(compiled, "scalar") == 0;
  for (const std::string& name : out) have_compiled |= name == compiled;
  if (!have_compiled) out.emplace_back(compiled);
  out.emplace_back("scalar");
  return out;
}

bool set_backend(const char* name) {
  if (name == nullptr) return false;
  const KernelTable* table = find_tier(name);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_release);
  return true;
}

const char* reset_backend() {
  const KernelTable* table = select_default();
  g_active.store(table, std::memory_order_release);
  return table->name;
}

// --- dispatched entry points -------------------------------------------------

double dot(const float* x, const float* y, int n) {
  return active()->dot(x, y, n);
}

double dot_df(const double* x, const float* y, int n) {
  return active()->dot_df(x, y, n);
}

void dot_norm(const float* x, const float* y, int n, double* dot, double* nx2,
              double* ny2) {
  active()->dot_norm(x, y, n, dot, nx2, ny2);
}

void dot8(const float* pack, const float* pixel, int bands, double out[8]) {
  active()->dot8(pack, pixel, bands, out);
}

void dot8f(const float* pack, const float* pixel, int bands, float out[8]) {
  active()->dot8f(pack, pixel, bands, out);
}

void rank1_update(double* upper, const double* c, int dims, double sign) {
  active()->rank1_update(upper, c, dims, sign);
}

void rank_k_update(double* upper, const double* cols, int dims, int rows) {
  active()->rank_k_update(upper, cols, dims, rows);
}

void project(const double* t, int comps, int bands, const double* bias,
             const float* pixel, float* out) {
  active()->project(t, comps, bands, bias, pixel, out);
}

}  // namespace rif::linalg::kernels
