// AVX2 tier of the runtime-dispatched kernel layer.
//
// Compiled with pinned flags (-march=x86-64 -mavx2 -mfma, see
// CMakeLists.txt) on every x86-64 build — including RIF_NATIVE_ARCH=OFF
// portable builds — so runtime cpuid dispatch can hand AVX2-capable hosts
// this tier no matter what the rest of the tree was compiled for, and the
// object code (hence every bit of the composite) is identical between
// portable and -march=native builds.
#include "linalg/kernels_table.h"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(RIF_DISABLE_SIMD)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "linalg/kernels.h"

#define RIF_KERNELS_AVX2 1
#define RIF_KERNELS_TIER_NAME "avx2"

namespace rif::linalg::kernels {
namespace {
#include "linalg/kernels_simd.inc"
}  // namespace

const KernelTable* avx2_table() { return &kTierTable; }

}  // namespace rif::linalg::kernels

#else  // foreign architecture or RIF_DISABLE_SIMD: tier absent

namespace rif::linalg::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace rif::linalg::kernels

#endif
