// SSE2 tier of the runtime-dispatched kernel layer.
//
// SSE2 is the x86-64 baseline, so this tier exists on every x86-64 build
// and is the floor runtime dispatch can always stand on when cpuid says
// AVX2 is absent. Compiled with pinned -march=x86-64 (see CMakeLists.txt)
// so -march=native builds cannot silently upgrade its codegen and split
// its numerics from portable builds.
#include "linalg/kernels_table.h"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(RIF_DISABLE_SIMD)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "linalg/kernels.h"

#define RIF_KERNELS_SSE2 1
#define RIF_KERNELS_TIER_NAME "sse2"

namespace rif::linalg::kernels {
namespace {
#include "linalg/kernels_simd.inc"
}  // namespace

const KernelTable* sse2_table() { return &kTierTable; }

}  // namespace rif::linalg::kernels

#else  // foreign architecture or RIF_DISABLE_SIMD: tier absent

namespace rif::linalg::kernels {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace rif::linalg::kernels

#endif
