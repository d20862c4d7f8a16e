#include "core/color_map.h"

#include <algorithm>
#include <cmath>

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

}  // namespace rif::core
