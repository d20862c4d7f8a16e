#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/color_map.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "hsi/metrics.h"
#include "hsi/scene.h"
#include "support/rng.h"

namespace rif::core {
namespace {

hsi::Scene test_scene(int size = 48, int bands = 24, std::uint64_t seed = 5) {
  hsi::SceneConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.bands = bands;
  cfg.seed = seed;
  return hsi::generate_scene(cfg);
}

// --- Spectral angle ------------------------------------------------------------

TEST(SpectralAngleTest, IdenticalVectorsZero) {
  std::vector<float> x{1.0f, 2.0f, 3.0f};
  EXPECT_NEAR(spectral_angle(x, x), 0.0, 1e-7);
}

TEST(SpectralAngleTest, OrthogonalVectorsHalfPi) {
  std::vector<float> x{1.0f, 0.0f};
  std::vector<float> y{0.0f, 1.0f};
  EXPECT_NEAR(spectral_angle(x, y), std::numbers::pi / 2, 1e-12);
}

TEST(SpectralAngleTest, ScaleInvariant) {
  // The key property for remote sensing: illumination intensity (a scalar
  // gain) does not change the angle.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> x(20), y(20);
    for (int i = 0; i < 20; ++i) {
      x[i] = static_cast<float>(rng.uniform(0.01, 1.0));
      y[i] = static_cast<float>(rng.uniform(0.01, 1.0));
    }
    std::vector<float> x_scaled(20);
    for (int i = 0; i < 20; ++i) x_scaled[i] = 7.5f * x[i];
    EXPECT_NEAR(spectral_angle(x, y), spectral_angle(x_scaled, y), 1e-5);
  }
}

TEST(SpectralAngleTest, Symmetric) {
  std::vector<float> x{0.3f, 0.9f, 0.1f};
  std::vector<float> y{0.5f, 0.2f, 0.8f};
  EXPECT_DOUBLE_EQ(spectral_angle(x, y), spectral_angle(y, x));
}

// --- UniqueSet -------------------------------------------------------------------

TEST(UniqueSetTest, FirstPixelAlwaysJoins) {
  UniqueSet set(3, 0.05);
  EXPECT_TRUE(set.screen(std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(UniqueSetTest, NearDuplicateRejected) {
  UniqueSet set(3, 0.05);
  set.screen(std::vector<float>{1.0f, 2.0f, 3.0f});
  EXPECT_FALSE(set.screen(std::vector<float>{1.001f, 2.0f, 3.0f}));
  EXPECT_FALSE(set.screen(std::vector<float>{2.0f, 4.0f, 6.0f}));  // scaled
  EXPECT_EQ(set.size(), 1u);
}

TEST(UniqueSetTest, DistinctDirectionAccepted) {
  UniqueSet set(3, 0.05);
  set.screen(std::vector<float>{1.0f, 0.0f, 0.0f});
  EXPECT_TRUE(set.screen(std::vector<float>{0.0f, 1.0f, 0.0f}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(UniqueSetTest, MembersPairwiseDistinct) {
  // Invariant: every pair of members is separated by more than the
  // threshold angle.
  const auto scene = test_scene();
  std::uint64_t comparisons = 0;
  const UniqueSet set = screen_range(scene.cube, 0, scene.cube.pixel_count(),
                                     0.05, &comparisons);
  ASSERT_GE(set.size(), 3u);
  EXPECT_GT(comparisons, 0u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      EXPECT_GT(spectral_angle(set.member(i), set.member(j)), 0.05);
    }
  }
}

TEST(UniqueSetTest, EveryPixelNearSomeMember) {
  // Invariant: the set covers the scene — no pixel is farther than the
  // threshold from every member.
  const auto scene = test_scene(32);
  const UniqueSet set =
      screen_range(scene.cube, 0, scene.cube.pixel_count(), 0.05);
  for (std::int64_t p = 0; p < scene.cube.pixel_count(); p += 17) {
    EXPECT_LE(set.min_angle_to(scene.cube.pixel(p)), 0.05 + 1e-9);
  }
}

TEST(UniqueSetTest, TighterThresholdLargerSet) {
  const auto scene = test_scene();
  const auto loose =
      screen_range(scene.cube, 0, scene.cube.pixel_count(), 0.15);
  const auto tight =
      screen_range(scene.cube, 0, scene.cube.pixel_count(), 0.02);
  EXPECT_GT(tight.size(), loose.size());
}

TEST(UniqueSetTest, FlatRoundTrip) {
  const auto scene = test_scene(24);
  const UniqueSet set = screen_range(scene.cube, 0, 200, 0.05);
  const UniqueSet copy =
      UniqueSet::from_flat(scene.cube.bands(), 0.05, set.flat());
  ASSERT_EQ(copy.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_NEAR(spectral_angle(set.member(i), copy.member(i)), 0.0, 1e-9);
  }
}

TEST(UniqueSetTest, MergeDeduplicates) {
  const auto scene = test_scene(32);
  const std::int64_t half = scene.cube.pixel_count() / 2;
  const UniqueSet a = screen_range(scene.cube, 0, half, 0.05);
  const UniqueSet b =
      screen_range(scene.cube, half, scene.cube.pixel_count(), 0.05);
  UniqueSet merged(scene.cube.bands(), 0.05);
  merged.merge(a);
  merged.merge(b);
  EXPECT_LT(merged.size(), a.size() + b.size());  // overlap removed
  EXPECT_GE(merged.size(), std::max(a.size(), b.size()));
}

// --- Colour mapping ---------------------------------------------------------------

TEST(ColorMapTest, MidGreyMapsToMidGrey) {
  const std::array<ComponentScale, 3> identity{
      ComponentScale{128.0, 1.0}, ComponentScale{128.0, 1.0},
      ComponentScale{128.0, 1.0}};
  const auto rgb = map_pixel({128.0, 128.0, 128.0}, identity);
  EXPECT_EQ(rgb[0], 128);
  EXPECT_EQ(rgb[1], 128);
  EXPECT_EQ(rgb[2], 128);
}

TEST(ColorMapTest, AchromaticChannelRaisesAllBands) {
  const std::array<ComponentScale, 3> identity{
      ComponentScale{128.0, 1.0}, ComponentScale{128.0, 1.0},
      ComponentScale{128.0, 1.0}};
  const auto bright = map_pixel({228.0, 128.0, 128.0}, identity);
  const auto dark = map_pixel({28.0, 128.0, 128.0}, identity);
  for (int c = 0; c < 3; ++c) EXPECT_GT(bright[c], dark[c]);
}

TEST(ColorMapTest, OutputsClamped) {
  const std::array<ComponentScale, 3> wild{
      ComponentScale{0.0, 100.0}, ComponentScale{0.0, 100.0},
      ComponentScale{0.0, 100.0}};
  const auto hi = map_pixel({1e6, 1e6, 1e6}, wild);
  const auto lo = map_pixel({-1e6, -1e6, -1e6}, wild);
  for (int c = 0; c < 3; ++c) {
    EXPECT_LE(hi[c], 255);
    EXPECT_GE(lo[c], 0);
  }
}

TEST(ColorMapTest, ScaleCentersMean) {
  const ComponentScale s = make_scale({10.0, 2.0});
  EXPECT_DOUBLE_EQ(s.to_byte(10.0), 128.0);
  EXPECT_GT(s.to_byte(12.0), 128.0);
  EXPECT_LT(s.to_byte(8.0), 128.0);
}

// --- Sequential pipeline -----------------------------------------------------------

TEST(PctPipelineTest, RunsOnSyntheticScene) {
  const auto scene = test_scene();
  const PctResult r = fuse(scene.cube);
  EXPECT_EQ(r.composite.width, scene.cube.width());
  EXPECT_EQ(r.composite.height, scene.cube.height());
  EXPECT_GE(r.unique_set_size, 3u);
  EXPECT_EQ(r.eigenvalues.size(), static_cast<std::size_t>(scene.cube.bands()));
  EXPECT_EQ(r.component_planes.size(), 3u);
}

TEST(PctPipelineTest, EigenvaluesNonNegativeDescending) {
  const auto scene = test_scene();
  const PctResult r = fuse(scene.cube);
  for (std::size_t i = 0; i < r.eigenvalues.size(); ++i) {
    EXPECT_GE(r.eigenvalues[i], -1e-9);
    if (i > 0) {
      EXPECT_GE(r.eigenvalues[i - 1], r.eigenvalues[i]);
    }
  }
}

TEST(PctPipelineTest, LeadingComponentsCaptureVariance) {
  const auto scene = test_scene();
  const PctResult r = fuse(scene.cube);
  double total = 0.0, top3 = 0.0;
  for (std::size_t i = 0; i < r.eigenvalues.size(); ++i) {
    total += std::max(r.eigenvalues[i], 0.0);
    if (i < 3) top3 += std::max(r.eigenvalues[i], 0.0);
  }
  EXPECT_GT(top3 / total, 0.85);  // spectra live near a low-dim manifold
}

TEST(PctPipelineTest, TransformedUniqueSetDecorrelated) {
  // Property: the covariance of the transformed *unique set* is diagonal
  // (that is what the PCT de-correlates in the screened algorithm).
  const auto scene = test_scene();
  const PctConfig config;
  const PctResult r = fuse(scene.cube, config);

  // Recompute the unique set and push it through the transform.
  const UniqueSet unique = screen_range(scene.cube, 0,
                                        scene.cube.pixel_count(),
                                        config.screening_threshold);
  const int k = 3;
  const linalg::Matrix t = transform_matrix(r.eigenvectors, k);
  std::vector<std::vector<double>> comps(k,
                                         std::vector<double>(unique.size()));
  std::vector<float> out(unique.size() * k);
  project_pixels(t, projection_bias(t, r.mean), unique.flat().data(),
                 static_cast<std::int64_t>(unique.size()), out.data());
  for (std::size_t i = 0; i < unique.size(); ++i) {
    for (int c = 0; c < k; ++c) comps[c][i] = out[i * k + c];
  }
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      double cov = 0.0, va = 0.0, vb = 0.0;
      for (std::size_t i = 0; i < unique.size(); ++i) {
        cov += comps[a][i] * comps[b][i];
        va += comps[a][i] * comps[a][i];
        vb += comps[b][i] * comps[b][i];
      }
      const double corr = cov / std::sqrt(va * vb);
      EXPECT_LT(std::abs(corr), 0.05) << "components " << a << "," << b;
    }
  }
}

TEST(PctPipelineTest, ComponentVarianceMatchesEigenvalue) {
  const auto scene = test_scene();
  const PctConfig config;
  const PctResult r = fuse(scene.cube, config);
  const UniqueSet unique = screen_range(scene.cube, 0,
                                        scene.cube.pixel_count(),
                                        config.screening_threshold);
  const linalg::Matrix t = transform_matrix(r.eigenvectors, 3);
  std::vector<float> out(unique.size() * 3);
  project_pixels(t, projection_bias(t, r.mean), unique.flat().data(),
                 static_cast<std::int64_t>(unique.size()), out.data());
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    sum += out[i * 3];
    sum2 += static_cast<double>(out[i * 3]) * out[i * 3];
  }
  const double n = static_cast<double>(unique.size());
  const double var = sum2 / n - (sum / n) * (sum / n);
  EXPECT_NEAR(var, r.eigenvalues[0], 0.02 * r.eigenvalues[0] + 1e-12);
}

TEST(PctPipelineTest, CompositeEnhancesCamouflagedTarget) {
  // The paper's Figure 3 claim, quantified: the fused composite separates
  // the camouflaged vehicle from its surroundings at least as well as the
  // best single band.
  const auto scene = test_scene(64, 32, 11);
  const PctResult r = fuse(scene.cube);
  const double composite_contrast =
      hsi::class_contrast(r.composite, scene.labels, hsi::Material::kCamouflage);
  const double best_band = hsi::best_band_contrast(scene.cube, scene.labels,
                                                   hsi::Material::kCamouflage);
  EXPECT_GT(composite_contrast, 0.8 * best_band);
  EXPECT_GT(composite_contrast, 1.0);  // clearly visible at all
}

TEST(PctPipelineTest, DeterministicAcrossRuns) {
  const auto scene = test_scene();
  const PctResult a = fuse(scene.cube);
  const PctResult b = fuse(scene.cube);
  EXPECT_EQ(a.composite.data, b.composite.data);
  EXPECT_EQ(a.unique_set_size, b.unique_set_size);
}

TEST(PctPipelineTest, MoreComponentsOnRequest) {
  const auto scene = test_scene();
  PctConfig config;
  config.output_components = 5;
  const PctResult r = fuse(scene.cube, config);
  EXPECT_EQ(r.component_planes.size(), 5u);
}

class ThresholdSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweepTest, PipelineRobustAcrossThresholds) {
  const auto scene = test_scene(40);
  PctConfig config;
  config.screening_threshold = GetParam();
  const PctResult r = fuse(scene.cube, config);
  EXPECT_GE(r.unique_set_size, 3u);
  EXPECT_GE(r.eigenvalues[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         ::testing::Values(0.02, 0.05, 0.08, 0.12, 0.2));

}  // namespace
}  // namespace rif::core
