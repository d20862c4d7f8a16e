// Ablation: eigen-decomposition strategy for step 6.
//
// The paper computes the full eigen-decomposition of the band-covariance
// matrix with an O(n^3) method and notes it does not dominate at 210
// bands. The pipeline's full solve is Householder tridiagonalisation plus
// implicit QL (linalg::jacobi_eigen, named after the paper's Jacobi cost
// model). The colour pipeline only consumes the three leading pairs, so
// power iteration with deflation is the natural alternative. This bench
// measures both for real (wall clock) across band counts, checks they
// agree, and reports the virtual share the paper's cost model charges.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "linalg/jacobi_eig.h"
#include "linalg/power_iteration.h"
#include "support/rng.h"
#include "support/table.h"

using namespace rif;
using Clock = std::chrono::steady_clock;

namespace {

linalg::Matrix random_covariance(int n, std::uint64_t seed) {
  // Realistic spectral covariance: strongly correlated neighbours.
  Rng rng(seed);
  linalg::Matrix cov(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double corr = std::exp(-std::abs(i - j) / 25.0);
      const double v = corr + 0.01 * rng.uniform(-1.0, 1.0);
      cov(i, j) = v;
      cov(j, i) = v;
    }
    cov(i, i) += 0.05;
  }
  return cov;
}

double time_ms(const std::function<void()>& fn, int repeats) {
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         repeats;
}

}  // namespace

int main() {
  std::printf("=== Ablation: full tridiagonal QL vs top-3 power iteration ===\n\n");
  Table table({"bands", "full-ql(ms)", "power3(ms)", "speedup",
               "max |dlambda|/l1", "sim sequential share @P=16"});

  for (const int n : {32, 64, 105, 210}) {
    const linalg::Matrix cov = random_covariance(n, 40 + n);
    linalg::EigenResult full;
    linalg::PowerIterationResult pow;
    const int repeats = n <= 64 ? 20 : 5;
    const double full_ms =
        time_ms([&] { full = linalg::jacobi_eigen(cov); }, repeats);
    const double pow_ms =
        time_ms([&] { pow = linalg::power_eigen(cov, 3); }, repeats);

    double max_rel = 0.0;
    for (int k = 0; k < 3; ++k) {
      max_rel = std::max(max_rel, std::abs(pow.values[k] - full.values[k]) /
                                      full.values[0]);
    }

    // Virtual-time view: fraction of a P=16 run the sequential eigen step
    // would occupy at 20 Mflop/s, per the cost model.
    const double virtual_share =
        100.0 * (linalg::jacobi_flops(n, 8) / 20e6) /
        (75.0 /* approx T16 of the paper testbed */);

    table.add_row({strf("%d", n), strf("%.2f", full_ms),
                   strf("%.2f", pow_ms), strf("%.1fx", full_ms / pow_ms),
                   strf("%.1e", max_rel), strf("%.1f%%", virtual_share)});
  }
  table.print();

  std::printf(
      "\nexpected: the two agree on the leading eigenvalues to high\n"
      "precision. Power iteration stays ahead of the full QL solve by a\n"
      "roughly constant factor over these band counts (about 3x on a\n"
      "4-vCPU x86 VM). The virtual-share column charges the paper's Jacobi cost model (8\n"
      "sweeps at 20 Mflop/s); the paper's observation that step 6 'does\n"
      "not dominate' at 210 bands holds there only because the screening\n"
      "work is so large.\n");
  return 0;
}
