#include "core/color_map.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace rif::core {

ComponentScale make_scale(const ComponentStats& stats, double sigmas) {
  ComponentScale s;
  s.mean = stats.mean;
  const double spread = std::max(stats.stddev * sigmas, 1e-12);
  s.gain = 127.0 / spread;
  return s;
}

std::array<std::uint8_t, 3> map_pixel(
    const std::array<double, 3>& components,
    const std::array<ComponentScale, 3>& scales) {
  // A NaN or infinite component (from a non-finite band) has no defined
  // colour; such a pixel maps to black.
  for (const double v : components) {
    if (!std::isfinite(v)) return {0, 0, 0};
  }
  // Scale each opponent channel into byte range around mid-grey.
  std::array<double, 3> c{};
  for (int i = 0; i < 3; ++i) c[i] = scales[i].to_byte(components[i]);

  std::array<std::uint8_t, 3> rgb{};
  for (int ch = 0; ch < 3; ++ch) {
    double acc = 128.0;
    for (int i = 0; i < 3; ++i) {
      acc += kOpponentToRgb[ch][i] * (c[i] - 128.0);
    }
    rgb[ch] = static_cast<std::uint8_t>(std::clamp(acc, 0.0, 255.0));
  }
  return rgb;
}

hsi::RgbImage map_planes(const std::vector<float>& pc1,
                         const std::vector<float>& pc2,
                         const std::vector<float>& pc3, int width,
                         int height) {
  const std::size_t n = static_cast<std::size_t>(width) * height;
  RIF_CHECK(pc1.size() == n && pc2.size() == n && pc3.size() == n);

  const std::array<ComponentScale, 3> scales = {
      make_scale(plane_stats(pc1)),
      make_scale(plane_stats(pc2)),
      make_scale(plane_stats(pc3)),
  };

  hsi::RgbImage image(width, height);
  for (std::size_t p = 0; p < n; ++p) {
    const auto rgb = map_pixel({pc1[p], pc2[p], pc3[p]}, scales);
    image.data[p * 3 + 0] = rgb[0];
    image.data[p * 3 + 1] = rgb[1];
    image.data[p * 3 + 2] = rgb[2];
  }
  return image;
}

ComponentStats plane_stats(const std::vector<float>& plane) {
  RIF_CHECK(!plane.empty());
  double sum = 0.0;
  double sum2 = 0.0;
  for (const float v : plane) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(plane.size());
  ComponentStats s;
  s.mean = sum / n;
  s.stddev = std::sqrt(std::max(0.0, sum2 / n - s.mean * s.mean));
  return s;
}

}  // namespace rif::core
