// SIMD kernel layer equivalence tests.
//
// The dispatched kernels (`kernels::*`) must agree with the scalar
// references (`kernels::scalar::*`) within floating-point reassociation
// tolerance across awkward shapes: odd band counts, sub-block tails
// (1..9 members, 1..5 pixel rows), member ranges that straddle the 8-lane
// pack blocks. In a RIF_DISABLE_SIMD build the dispatched entry points ARE
// the scalar references, and these tests pin that down bit-exactly — so
// running this suite on both CI legs is the cross-build half of the
// tolerance contract. The float-width screening pre-filter is held to a
// stricter bar: on every tier, UniqueSet's filtered scan must decide every
// lane, and count every comparison, exactly as a double-only scan does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/spectral_angle.h"
#include "hsi/partition.h"
#include "hsi/scene.h"
#include "linalg/kernels.h"
#include "linalg/kernels_table.h"
#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "support/rng.h"

namespace rif::linalg::kernels {
namespace {

std::vector<float> random_floats(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<double> random_doubles(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Reassociation tolerance: |simd - scalar| <= tol * (n + 1) ulp-ish slack.
double tol(int n) { return 1e-12 * (n + 1); }

TEST(KernelsTest, BackendIsConsistentWithSimdFlag) {
  if (simd_enabled()) {
    EXPECT_STRNE(backend(), "scalar");
  } else {
    EXPECT_STREQ(backend(), "scalar");
  }
}

TEST(KernelsTest, DotMatchesScalarAcrossLengths) {
  for (int n = 1; n <= 40; ++n) {
    const auto x = random_floats(n, 100 + n);
    const auto y = random_floats(n, 200 + n);
    const double expect = scalar::dot(x.data(), y.data(), n);
    EXPECT_NEAR(dot(x.data(), y.data(), n), expect, tol(n)) << "n=" << n;
  }
  for (const int n : {64, 105, 128, 210}) {
    const auto x = random_floats(n, 300 + n);
    const auto y = random_floats(n, 400 + n);
    EXPECT_NEAR(dot(x.data(), y.data(), n),
                scalar::dot(x.data(), y.data(), n), tol(n));
  }
}

TEST(KernelsTest, DotDfMatchesScalarAcrossLengths) {
  for (const int n : {1, 2, 3, 5, 7, 9, 16, 31, 33, 105}) {
    const auto x = random_doubles(n, 500 + n);
    const auto y = random_floats(n, 600 + n);
    EXPECT_NEAR(dot_df(x.data(), y.data(), n),
                scalar::dot_df(x.data(), y.data(), n), tol(n))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotNormMatchesScalar) {
  for (const int n : {1, 3, 7, 8, 15, 32, 105, 211}) {
    const auto x = random_floats(n, 700 + n);
    const auto y = random_floats(n, 800 + n);
    double d_s, nx_s, ny_s, d_v, nx_v, ny_v;
    scalar::dot_norm(x.data(), y.data(), n, &d_s, &nx_s, &ny_s);
    dot_norm(x.data(), y.data(), n, &d_v, &nx_v, &ny_v);
    EXPECT_NEAR(d_v, d_s, tol(n)) << "n=" << n;
    EXPECT_NEAR(nx_v, nx_s, tol(n)) << "n=" << n;
    EXPECT_NEAR(ny_v, ny_s, tol(n)) << "n=" << n;
  }
}

TEST(KernelsTest, Dot8MatchesPerMemberDotsAtOddBandCounts) {
  for (const int bands : {1, 2, 3, 5, 7, 8, 9, 31, 33, 105}) {
    // Pack 8 members band-major, keep the AoS copies for the reference.
    std::vector<std::vector<float>> members;
    std::vector<float> pack(static_cast<std::size_t>(bands) * kScreenLanes);
    for (int m = 0; m < kScreenLanes; ++m) {
      members.push_back(random_floats(bands, 900 + bands * 10 + m));
      for (int b = 0; b < bands; ++b) {
        pack[static_cast<std::size_t>(b) * kScreenLanes + m] = members[m][b];
      }
    }
    const auto pixel = random_floats(bands, 999 + bands);
    double out[kScreenLanes];
    dot8(pack.data(), pixel.data(), bands, out);
    for (int m = 0; m < kScreenLanes; ++m) {
      EXPECT_NEAR(out[m],
                  scalar::dot(members[m].data(), pixel.data(), bands),
                  tol(bands))
          << "bands=" << bands << " lane=" << m;
    }
  }
}

TEST(KernelsTest, Dot8ZeroLanesOfPartialBlockStayZero) {
  // The UniqueSet pack zero-fills unused lanes; their dots must be exactly
  // zero so a partially filled block is safe to run through the kernel.
  const int bands = 13;
  std::vector<float> pack(static_cast<std::size_t>(bands) * kScreenLanes,
                          0.0f);
  const auto member = random_floats(bands, 77);
  for (int b = 0; b < bands; ++b) {
    pack[static_cast<std::size_t>(b) * kScreenLanes] = member[b];  // lane 0
  }
  const auto pixel = random_floats(bands, 78);
  double out[kScreenLanes];
  dot8(pack.data(), pixel.data(), bands, out);
  EXPECT_NEAR(out[0], scalar::dot(member.data(), pixel.data(), bands),
              tol(bands));
  for (int m = 1; m < kScreenLanes; ++m) EXPECT_EQ(out[m], 0.0);
}

/// Higham's gamma_n for float (unit roundoff 2^-24).
double gamma_f(int n) {
  const double nu = n * 0x1p-24;
  return nu / (1.0 - nu);
}

/// Restore the startup tier selection when a test returns, however it
/// exits — dispatch state is process-global.
struct BackendGuard {
  ~BackendGuard() { reset_backend(); }
};

TEST(KernelsTest, Dot8fWithinGammaOfDot8OnEveryTier) {
  // The pre-filter's contract: whatever the tier's summation order and FMA
  // use, |dot8f - exact| <= gamma_n * sum |pack * pixel|.
  const BackendGuard guard;
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    for (const int bands : {1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 105, 210}) {
      const auto pack = random_floats(bands * kScreenLanes, 3000 + bands);
      const auto pixel = random_floats(bands, 3100 + bands);
      float approx[kScreenLanes];
      dot8f(pack.data(), pixel.data(), bands, approx);
      for (int m = 0; m < kScreenLanes; ++m) {
        double exact = 0.0, abs_sum = 0.0;
        for (int b = 0; b < bands; ++b) {
          const double term =
              static_cast<double>(pack[static_cast<std::size_t>(b) *
                                           kScreenLanes + m]) *
              pixel[b];
          exact += term;
          abs_sum += std::fabs(term);
        }
        EXPECT_LE(std::fabs(approx[m] - exact),
                  gamma_f(bands) * abs_sum + 1e-12 * abs_sum)
            << tier << " bands=" << bands << " lane=" << m;
      }
    }
  }
}

TEST(KernelsTest, Dot8fZeroLanesOfPartialBlockStayZero) {
  const BackendGuard guard;
  const int bands = 13;
  std::vector<float> pack(static_cast<std::size_t>(bands) * kScreenLanes,
                          0.0f);
  const auto member = random_floats(bands, 79);
  for (int b = 0; b < bands; ++b) {
    pack[static_cast<std::size_t>(b) * kScreenLanes] = member[b];  // lane 0
  }
  const auto pixel = random_floats(bands, 80);
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    float out[kScreenLanes];
    dot8f(pack.data(), pixel.data(), bands, out);
    EXPECT_NEAR(out[0], scalar::dot(member.data(), pixel.data(), bands),
                1e-5)
        << tier;
    for (int m = 1; m < kScreenLanes; ++m) EXPECT_EQ(out[m], 0.0f) << tier;
  }
}

TEST(KernelsTest, Rank1UpdateMatchesScalarBothSigns) {
  for (const int dims : {1, 2, 3, 5, 8, 9, 33}) {
    const auto c = random_doubles(dims, 1100 + dims);
    const std::size_t tri = static_cast<std::size_t>(dims) * (dims + 1) / 2;
    std::vector<double> a(tri, 0.5);
    std::vector<double> b(tri, 0.5);
    scalar::rank1_update(a.data(), c.data(), dims, 1.0);
    rank1_update(b.data(), c.data(), dims, 1.0);
    scalar::rank1_update(a.data(), c.data(), dims, -0.5);
    rank1_update(b.data(), c.data(), dims, -0.5);
    for (std::size_t i = 0; i < tri; ++i) {
      EXPECT_NEAR(b[i], a[i], 1e-12) << "dims=" << dims << " idx=" << i;
    }
  }
}

TEST(KernelsTest, RankKMatchesScalarAcrossRowTails) {
  // 1..5 pixel rows (sub-block tails) at odd dims, vs the scalar triangle.
  for (const int dims : {1, 3, 7, 9, 33}) {
    for (int rows = 1; rows <= 5; ++rows) {
      const auto cols =
          random_doubles(dims * rows, 1200 + dims * 10 + rows);
      const std::size_t tri =
          static_cast<std::size_t>(dims) * (dims + 1) / 2;
      std::vector<double> a(tri, 0.25);
      std::vector<double> b(tri, 0.25);
      scalar::rank_k_update(a.data(), cols.data(), dims, rows);
      rank_k_update(b.data(), cols.data(), dims, rows);
      for (std::size_t i = 0; i < tri; ++i) {
        EXPECT_NEAR(b[i], a[i], tol(rows))
            << "dims=" << dims << " rows=" << rows << " idx=" << i;
      }
    }
  }
}

TEST(KernelsTest, ProjectMatchesScalarAcrossShapes) {
  for (const int comps : {1, 2, 3, 4, 5}) {
    for (const int bands : {1, 3, 7, 31, 33, 105}) {
      const auto t = random_doubles(comps * bands, 1300 + comps * 7 + bands);
      const auto bias = random_doubles(comps, 1400 + comps);
      const auto pixel = random_floats(bands, 1500 + bands);
      std::vector<float> a(static_cast<std::size_t>(comps));
      std::vector<float> b(static_cast<std::size_t>(comps));
      scalar::project(t.data(), comps, bands, bias.data(), pixel.data(),
                      a.data());
      project(t.data(), comps, bands, bias.data(), pixel.data(), b.data());
      for (int c = 0; c < comps; ++c) {
        EXPECT_NEAR(b[c], a[c], 1e-5f)
            << "comps=" << comps << " bands=" << bands << " c=" << c;
      }
    }
  }
}

TEST(KernelsTest, DispatchedIsBitExactScalarWhenSimdDisabled) {
  if (simd_enabled()) GTEST_SKIP() << "SIMD build: covered by NEAR tests";
  const int n = 37;
  const auto x = random_floats(n, 1600);
  const auto y = random_floats(n, 1601);
  EXPECT_EQ(dot(x.data(), y.data(), n), scalar::dot(x.data(), y.data(), n));
}

// --- runtime dispatch --------------------------------------------------------

TEST(RuntimeDispatchTest, EveryAvailableTierSwitchesAndAgreesWithScalar) {
  const BackendGuard guard;
  const auto tiers = available_backends();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), "scalar");  // the floor is always present

  const int n = 105;
  const auto x = random_floats(n, 2000);
  const auto y = random_floats(n, 2001);
  const double expect = scalar::dot(x.data(), y.data(), n);
  for (const std::string& tier : tiers) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    EXPECT_STREQ(backend(), tier.c_str());
    EXPECT_EQ(simd_enabled(), tier != "scalar");
    EXPECT_NEAR(dot(x.data(), y.data(), n), expect, tol(n)) << tier;
  }
}

TEST(RuntimeDispatchTest, ForcedScalarTierIsBitExactReference) {
  const BackendGuard guard;
  ASSERT_TRUE(set_backend("scalar"));
  EXPECT_STREQ(backend(), "scalar");
  EXPECT_FALSE(simd_enabled());
  const int n = 41;
  const auto x = random_floats(n, 2100);
  const auto y = random_floats(n, 2101);
  EXPECT_EQ(dot(x.data(), y.data(), n), scalar::dot(x.data(), y.data(), n));
  const auto t = random_doubles(3 * n, 2102);
  const auto bias = random_doubles(3, 2103);
  std::vector<float> a(3), b(3);
  scalar::project(t.data(), 3, n, bias.data(), x.data(), a.data());
  project(t.data(), 3, n, bias.data(), x.data(), b.data());
  for (int c = 0; c < 3; ++c) EXPECT_EQ(b[c], a[c]);
}

TEST(RuntimeDispatchTest, UnknownOrUnsupportedTierIsRefusedUnchanged) {
  const BackendGuard guard;
  const std::string before = backend();
  EXPECT_FALSE(set_backend("avx512"));
  EXPECT_FALSE(set_backend(""));
  EXPECT_FALSE(set_backend(nullptr));
  EXPECT_EQ(backend(), before);
}

TEST(RuntimeDispatchTest, EnvOverrideForcesAndFallsBackWhenBogus) {
  const BackendGuard guard;
  ASSERT_EQ(setenv("RIF_SIMD", "scalar", 1), 0);
  EXPECT_STREQ(reset_backend(), "scalar");
  EXPECT_STREQ(backend(), "scalar");

  // A tier this binary/CPU cannot run falls back to detection (with a
  // logged warning), never to a crash or a silently wrong table.
  ASSERT_EQ(setenv("RIF_SIMD", "no-such-isa", 1), 0);
  const std::string detected = reset_backend();
  const auto tiers = available_backends();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), detected), tiers.end());

  ASSERT_EQ(unsetenv("RIF_SIMD"), 0);
}

TEST(RuntimeDispatchTest, RuntimeTierIsBitIdenticalToCompileTimeTier) {
  // The acceptance contract of runtime dispatch: when the build's
  // compile-time path selected tier X (e.g. -march=native on an AVX2
  // host), the runtime-dispatched tier X — the one portable builds run —
  // computes the very same bytes. With pinned per-TU flags both tables
  // point at functionally identical code; this pins it bit-exactly.
  const BackendGuard guard;
  const KernelTable& compiled = compiled_table();
  if (!set_backend(compiled.name)) {
    GTEST_SKIP() << "compile-time tier " << compiled.name
                 << " has no runtime table here";
  }
  const int n = 105;
  const auto x = random_floats(n, 2200);
  const auto y = random_floats(n, 2201);
  EXPECT_EQ(dot(x.data(), y.data(), n), compiled.dot(x.data(), y.data(), n));
  const auto xd = random_doubles(n, 2202);
  EXPECT_EQ(dot_df(xd.data(), y.data(), n),
            compiled.dot_df(xd.data(), y.data(), n));

  std::vector<float> pack(static_cast<std::size_t>(n) * kScreenLanes);
  for (std::size_t i = 0; i < pack.size(); ++i) {
    pack[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  }
  double got[kScreenLanes], want[kScreenLanes];
  dot8(pack.data(), x.data(), n, got);
  compiled.dot8(pack.data(), x.data(), n, want);
  for (int m = 0; m < kScreenLanes; ++m) EXPECT_EQ(got[m], want[m]);
  float got_f[kScreenLanes], want_f[kScreenLanes];
  dot8f(pack.data(), x.data(), n, got_f);
  compiled.dot8f(pack.data(), x.data(), n, want_f);
  for (int m = 0; m < kScreenLanes; ++m) EXPECT_EQ(got_f[m], want_f[m]);

  const auto t = random_doubles(3 * n, 2203);
  const auto bias = random_doubles(3, 2204);
  std::vector<float> a(3), b(3);
  project(t.data(), 3, n, bias.data(), x.data(), a.data());
  compiled.project(t.data(), 3, n, bias.data(), x.data(), b.data());
  for (int c = 0; c < 3; ++c) EXPECT_EQ(a[c], b[c]);
}

// --- UniqueSet pack integration ----------------------------------------------

core::UniqueSet build_set(int bands, int members, double threshold,
                          std::uint64_t seed) {
  core::UniqueSet set(bands, threshold);
  Rng rng(seed);
  int added = 0;
  while (added < members) {
    std::vector<float> px(static_cast<std::size_t>(bands));
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 1.0));
    if (set.screen(px)) ++added;
  }
  return set;
}

TEST(UniqueSetPackTest, AnyWithinFindsExactlyTheInRangeMember) {
  // A scaled copy of member j has spectral angle 0 to member j — within
  // any threshold — and (by unique-set construction) exceeds the threshold
  // to every other member. So any_within over [begin, end) must be true
  // iff j is in range, for every (begin, end) straddling pack blocks and
  // for set sizes covering sub-block tails (1..9 members).
  const int bands = 21;
  const double threshold = 0.05;
  for (int members = 1; members <= 9; ++members) {
    const core::UniqueSet set = build_set(bands, members, threshold, 42);
    ASSERT_EQ(set.size(), static_cast<std::size_t>(members));
    for (int j = 0; j < members; ++j) {
      std::vector<float> probe(set.member(j).begin(), set.member(j).end());
      for (auto& v : probe) v *= 2.0f;  // same direction, double the norm
      const double inv =
          1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
      for (int begin = 0; begin <= members; ++begin) {
        for (int end = begin; end <= members; ++end) {
          const bool expect = begin <= j && j < end;
          EXPECT_EQ(set.any_within(probe, inv, begin, end), expect)
              << "members=" << members << " j=" << j << " range=[" << begin
              << "," << end << ")";
        }
      }
    }
  }
}

TEST(UniqueSetPackTest, RangesAcrossBlockBoundariesOnLargerSet) {
  const int bands = 33;  // odd: exercises the kernel tail
  const int members = 21;  // 2 full blocks + 5-lane tail
  const double threshold = 0.04;
  const core::UniqueSet set = build_set(bands, members, threshold, 7);
  ASSERT_EQ(set.size(), static_cast<std::size_t>(members));
  for (const int j : {0, 7, 8, 15, 16, 20}) {
    std::vector<float> probe(set.member(j).begin(), set.member(j).end());
    for (auto& v : probe) v *= 0.5f;
    const double inv =
        1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
    for (const int begin : {0, 1, 7, 8, 9, 15, 16}) {
      for (const int end : {begin, 7, 8, 9, 16, 20, 21}) {
        if (end < begin) continue;
        EXPECT_EQ(set.any_within(probe, inv, begin, end),
                  begin <= j && j < end)
            << "j=" << j << " range=[" << begin << "," << end << ")";
      }
    }
  }
}

TEST(UniqueSetPackTest, FromFlatRebuildsIdenticalPack) {
  const int bands = 19;
  const double threshold = 0.05;
  const core::UniqueSet set = build_set(bands, 11, threshold, 99);
  const core::UniqueSet rebuilt =
      core::UniqueSet::from_flat(bands, threshold, set.flat());
  ASSERT_EQ(rebuilt.size(), set.size());
  // Same members, same pack: identical screening decisions and identical
  // comparison counts for any probe.
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> probe(static_cast<std::size_t>(bands));
    for (auto& v : probe) v = static_cast<float>(rng.uniform(0.05, 1.0));
    const double inv =
        1.0 / std::sqrt(scalar::dot(probe.data(), probe.data(), bands));
    std::uint64_t comp_a = 0, comp_b = 0;
    const bool a = set.any_within(probe, inv, 0, set.size(), &comp_a);
    const bool b =
        rebuilt.any_within(probe, inv, 0, rebuilt.size(), &comp_b);
    EXPECT_EQ(a, b) << "trial " << trial;
    EXPECT_EQ(comp_a, comp_b) << "trial " << trial;
  }
}

// --- float pre-filter exactness ---------------------------------------------

/// The screening scan with every lane decided by the double dot8 — how
/// UniqueSet decided before the float pre-filter — as the oracle the
/// filtered scan must match decision for decision and count for count.
class DoubleOnlySet {
 public:
  DoubleOnlySet(int bands, double threshold)
      : bands_(bands), cos_threshold_(std::cos(threshold)) {}

  bool any_within(std::span<const float> pixel, double pixel_inv_norm,
                  std::size_t begin, std::size_t end,
                  std::uint64_t* comparisons) const {
    double dots[kScreenLanes] = {};
    for (std::size_t m = begin; m < end; ++m) {
      if (m == begin || m % kScreenLanes == 0) {
        dot8(pack_.data() + m / kScreenLanes * bands_ * kScreenLanes,
             pixel.data(), bands_, dots);
      }
      ++*comparisons;
      if (dots[m % kScreenLanes] * inv_norms_[m] * pixel_inv_norm >=
          cos_threshold_) {
        return true;
      }
    }
    return false;
  }

  bool screen(std::span<const float> pixel, std::uint64_t* comparisons) {
    const double norm2 = dot(pixel.data(), pixel.data(), bands_);
    if (!(norm2 > 0.0 && std::isfinite(norm2))) return false;
    const double inv = 1.0 / std::sqrt(norm2);
    if (any_within(pixel, inv, 0, size(), comparisons)) return false;
    const std::size_t lane = size() % kScreenLanes;
    if (lane == 0) pack_.resize(pack_.size() + bands_ * kScreenLanes, 0.0f);
    float* block =
        pack_.data() + size() / kScreenLanes * bands_ * kScreenLanes;
    for (std::size_t b = 0; b < bands_; ++b) {
      block[b * kScreenLanes + lane] = pixel[b];
    }
    flat_.insert(flat_.end(), pixel.begin(), pixel.end());
    inv_norms_.push_back(inv);
    return true;
  }

  void merge(const DoubleOnlySet& other, std::uint64_t* comparisons) {
    for (std::size_t i = 0; i < other.size(); ++i) {
      screen({other.flat_.data() + i * bands_, bands_}, comparisons);
    }
  }

  [[nodiscard]] std::size_t size() const { return inv_norms_.size(); }
  [[nodiscard]] const std::vector<float>& flat() const { return flat_; }

 private:
  std::size_t bands_;
  double cos_threshold_;
  std::vector<float> pack_;
  std::vector<float> flat_;
  std::vector<double> inv_norms_;
};

double inv_norm_of(std::span<const float> px) {
  const int n = static_cast<int>(px.size());
  return 1.0 / std::sqrt(dot(px.data(), px.data(), n));
}

/// Filtered and double-only answers for one probe over every member range
/// that starts or ends on a block edge or the set's ends.
void expect_same_decisions(const core::UniqueSet& set,
                           const DoubleOnlySet& ref,
                           std::span<const float> probe,
                           const std::string& what, int* hits = nullptr) {
  const double inv = inv_norm_of(probe);
  const std::size_t n = set.size();
  for (const std::size_t begin : {std::size_t{0}, std::size_t{1}, n / 2}) {
    for (const std::size_t end : {n / 2 + 1, n - 1, n}) {
      if (begin > end || end > n) continue;
      std::uint64_t got_count = 0, want_count = 0;
      const bool got = set.any_within(probe, inv, begin, end, &got_count);
      const bool want = ref.any_within(probe, inv, begin, end, &want_count);
      EXPECT_EQ(got, want) << what << " range=[" << begin << "," << end << ")";
      EXPECT_EQ(got_count, want_count)
          << what << " range=[" << begin << "," << end << ")";
      if (hits != nullptr && begin == 0 && end == n && got) ++*hits;
    }
  }
}

/// Unit vector at angle `theta` from `member`, in the plane of `member` and
/// a seeded random direction, scaled by `scale` and rounded to float.
std::vector<float> at_angle(std::span<const float> member, double theta,
                            double scale, std::uint64_t seed) {
  const std::size_t n = member.size();
  std::vector<double> m(member.begin(), member.end());
  double mm = 0.0;
  for (const double v : m) mm += v * v;
  for (double& v : m) v /= std::sqrt(mm);
  std::vector<double> u = random_doubles(static_cast<int>(n), seed);
  double um = 0.0;
  for (std::size_t i = 0; i < n; ++i) um += u[i] * m[i];
  double uu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    u[i] -= um * m[i];
    uu += u[i] * u[i];
  }
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(
        scale * (std::cos(theta) * m[i] + std::sin(theta) * u[i] /
                                             std::sqrt(uu)));
  }
  return out;
}

/// Positive seeded pixels, as a scene's reflectances are.
std::vector<float> positive_floats(int n, std::uint64_t seed,
                                   double scale = 1.0) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(scale * rng.uniform(0.05, 1.0));
  return v;
}

TEST(ScreenFilterTest, PairsAtThresholdPlusMinusNanoradiansDecideExactly) {
  // Probes within k nanoradians of the threshold angle: far inside the
  // float dot's error, so the filter must hand them to the double path.
  const BackendGuard guard;
  const double threshold = 0.05;
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    for (const int bands : {3, 32, 105, 210}) {
      core::UniqueSet set(bands, threshold);
      DoubleOnlySet ref(bands, threshold);
      std::uint64_t ignored = 0;
      for (int m = 0; set.size() < 11; ++m) {
        const auto px = positive_floats(bands, 4000 + 100 * bands + m);
        EXPECT_EQ(set.screen(px), ref.screen(px, &ignored));
      }
      int hits = 0;
      int probes = 0;
      for (std::size_t j = 0; j < set.size(); j += 5) {
        for (int k = -40; k <= 40; ++k) {
          for (const double scale : {1.0, 3.5}) {
            const auto probe =
                at_angle(set.member(j), threshold + k * 1e-9, scale,
                         5000 + static_cast<std::uint64_t>(k + 40));
            expect_same_decisions(set, ref, probe,
                                  tier + " bands=" + std::to_string(bands) +
                                      " k=" + std::to_string(k),
                                  &hits);
            ++probes;
          }
        }
      }
      // The sweep straddles the threshold: both answers occur.
      EXPECT_GT(hits, 0) << tier << " bands=" << bands;
      EXPECT_LT(hits, probes) << tier << " bands=" << bands;
    }
  }
}

TEST(ScreenFilterTest, ExtremeAndNonFiniteValuesDecideExactly) {
  // Magnitudes whose float products overflow (1e30) or underflow (1e-30,
  // subnormals) must bypass the filter, as must NaN and infinite pixels;
  // all of them decide exactly as the double path does.
  const BackendGuard guard;
  const int bands = 33;
  const double threshold = 0.05;
  const double scales[] = {1.0, 1e30, 1e-30, 1e-41, 1e18, 1e-18};
  for (const std::string& tier : available_backends()) {
    ASSERT_TRUE(set_backend(tier.c_str())) << tier;
    core::UniqueSet set(bands, threshold);
    DoubleOnlySet ref(bands, threshold);
    std::uint64_t ignored = 0;
    std::vector<std::vector<float>> directions;
    for (int m = 0; m < 18; ++m) {
      const auto dir = positive_floats(bands, 6000 + m);
      const auto px = positive_floats(bands, 6000 + m, scales[m % 6]);
      if (set.screen(px)) directions.push_back(dir);
      ref.screen(px, &ignored);
    }
    ASSERT_EQ(set.flat(), ref.flat()) << tier;
    ASSERT_GT(set.size(), 8u) << tier;
    for (std::size_t d = 0; d < directions.size(); ++d) {
      for (const double scale : scales) {
        // A scaled copy of a member (a hit) and a fresh direction.
        std::vector<float> copy(directions[d]);
        for (float& v : copy) v = static_cast<float>(v * scale);
        expect_same_decisions(set, ref, copy, tier + " copy");
        expect_same_decisions(
            set, ref, positive_floats(bands, 7000 + d, scale), tier + " new");
        expect_same_decisions(
            set, ref, at_angle(directions[d], threshold, scale, 7100 + d),
            tier + " edge");
      }
    }
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (const float special : specials) {
      std::vector<float> probe(directions[0]);
      probe[5] = special;
      expect_same_decisions(set, ref, probe, tier + " special");
      EXPECT_FALSE(set.screen(probe)) << tier;  // never joins
    }
  }
}

TEST(ScreenFilterTest, SceneScreenAndMergeMatchDoubleOnlyScan) {
  // Three seeded 320x320x105 scenes, screened in 8 row tiles and merged in
  // tile order: the same members, byte for byte, and the same screen and
  // merge comparison counts as the double-only scan, on every tier.
  const BackendGuard guard;
  const double threshold = 0.05;
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    hsi::SceneConfig sc;
    sc.width = 320;
    sc.height = 320;
    sc.bands = 105;
    sc.seed = seed;
    const hsi::Scene scene = hsi::generate_scene(sc);
    const auto tiles = hsi::partition_rows({320, 320, 105}, 8);
    for (const std::string& tier : available_backends()) {
      ASSERT_TRUE(set_backend(tier.c_str())) << tier;
      std::uint64_t screen_got = 0, screen_want = 0;
      std::uint64_t merge_got = 0, merge_want = 0;
      core::UniqueSet merged(105, threshold);
      DoubleOnlySet ref_merged(105, threshold);
      for (const hsi::Tile& t : tiles) {
        merged.merge(core::screen_range(scene.cube, t.first_flat_index(),
                                        t.end_flat_index(), threshold,
                                        &screen_got),
                     &merge_got);
        DoubleOnlySet ref(105, threshold);
        for (std::int64_t p = t.first_flat_index(); p < t.end_flat_index();
             ++p) {
          ref.screen(scene.cube.pixel(p), &screen_want);
        }
        ref_merged.merge(ref, &merge_want);
      }
      const std::string what = tier + " seed=" + std::to_string(seed);
      ASSERT_EQ(merged.flat().size(), ref_merged.flat().size()) << what;
      EXPECT_EQ(std::memcmp(merged.flat().data(), ref_merged.flat().data(),
                            merged.flat().size() * sizeof(float)),
                0)
          << what;
      EXPECT_EQ(screen_got, screen_want) << what;
      EXPECT_EQ(merge_got, merge_want) << what;
    }
  }
}

}  // namespace
}  // namespace rif::linalg::kernels
