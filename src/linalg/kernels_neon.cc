// NEON tier of the runtime-dispatched kernel layer.
//
// AArch64 makes Advanced SIMD (NEON with double lanes) mandatory, so this
// tier needs no extra compile flags and HWCAP detection is a formality —
// but the tier still goes through the same table/dispatch machinery so
// RIF_SIMD=scalar works identically on ARM. 32-bit ARM NEON has no double
// lanes (accumulation is in double everywhere, matching the seed's
// numerics), so only aarch64 builds carry this tier.
#include "linalg/kernels_table.h"

#if defined(__aarch64__) && defined(__ARM_NEON) && !defined(RIF_DISABLE_SIMD)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "linalg/kernels.h"

#define RIF_KERNELS_NEON 1
#define RIF_KERNELS_TIER_NAME "neon"

namespace rif::linalg::kernels {
namespace {
#include "linalg/kernels_simd.inc"
}  // namespace

const KernelTable* neon_table() { return &kTierTable; }

}  // namespace rif::linalg::kernels

#else  // foreign architecture or RIF_DISABLE_SIMD: tier absent

namespace rif::linalg::kernels {
const KernelTable* neon_table() { return nullptr; }
}  // namespace rif::linalg::kernels

#endif
