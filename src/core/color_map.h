// Human-centred colour mapping (step 8 of the paper's algorithm).
//
// The first three principal components are interpreted as opponent-colour
// channels — PC1 achromatic, PC2 red-green opponency, PC3 blue-yellow
// opponency — and mapped to display RGB with a fixed 3x3 opponent-to-RGB
// matrix, offset around mid-grey:  R = 128 + M (c - 128), clamped to [0,255].
// The matrix coefficients are reconstructed from the paper's (OCR-damaged)
// formula; see DESIGN.md §4 for the substitution note.
//
// Before mapping, each component plane is affinely normalized so that its
// mean lands at 128 and +/-2.5 sigma spans the byte range — the standard
// contrast-stretch step any implementation needs between raw PCT output
// (arbitrary dynamic range) and the fixed-point formula the paper gives.
#pragma once

#include <array>
#include <vector>

#include "hsi/image_io.h"

namespace rif::core {

/// The opponent-to-RGB mapping matrix (rows: R, G, B; columns: achromatic,
/// red-green, blue-yellow). The achromatic column is all-positive (more
/// luminance raises every channel); the red-green column raises R and
/// lowers G; the blue-yellow column's sign is a free convention because
/// eigenvector signs are themselves arbitrary.
inline constexpr std::array<std::array<double, 3>, 3> kOpponentToRgb = {{
    {0.4387, 0.4972, 0.0641},
    {0.4972, -0.1403, 0.0795},
    {0.4972, -0.0116, -0.1355},
}};

struct ComponentStats {
  double mean = 0.0;
  double stddev = 1.0;
};

/// Normalization parameters for one component plane: byte = 128 + gain*(v-mean).
struct ComponentScale {
  double mean = 0.0;
  double gain = 1.0;

  [[nodiscard]] double to_byte(double v) const {
    return 128.0 + gain * (v - mean);
  }
};

/// Derive a scale that puts +/- `sigmas` standard deviations across [0,255].
ComponentScale make_scale(const ComponentStats& stats, double sigmas = 2.5);

/// Map one pixel's first three principal components (already scaled to byte
/// range by `scales`) to RGB. A pixel with a non-finite component maps to
/// black.
std::array<std::uint8_t, 3> map_pixel(const std::array<double, 3>& components,
                                      const std::array<ComponentScale, 3>& scales);

/// Flops charged per mapped pixel (3x3 matrix apply + scales + clamps).
inline constexpr double kColorMapFlopsPerPixel = 30.0;

}  // namespace rif::core
