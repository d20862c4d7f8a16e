// Spectral-angle screening (step 1 of the paper's algorithm) and unique-set
// merging (step 2).
//
// The spectral angle between two pixel vectors is
//     alpha(x, y) = arccos( x.y / (|x| |y|) ),
// which is invariant to illumination scale — the property that lets the
// screen treat a shaded vehicle and a sunlit vehicle as the same signature.
// A "unique set" holds one representative per signature: a pixel joins the
// set iff its angle to every current member exceeds the threshold. The PCT
// statistics are then computed over the unique set, so a vehicle covering
// 40 pixels weighs as much as forest covering 40,000 (the paper's stated
// motivation for screening before de-correlation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hsi/image_cube.h"

namespace rif::core {

/// Spectral angle in radians between two equal-length vectors.
double spectral_angle(std::span<const float> x, std::span<const float> y);

/// A set of spectrally distinct pixel vectors.
class UniqueSet {
 public:
  /// Requires bands > 0 and valid_threshold(threshold_radians).
  UniqueSet(int bands, double threshold_radians);

  /// The screening thresholds a set accepts: (0, 1.5707) radians, so the
  /// cosine threshold stays positive. NaN is refused.
  [[nodiscard]] static bool valid_threshold(double threshold_radians) {
    return threshold_radians > 0.0 && threshold_radians < 1.5707;
  }

  /// Add `pixel` if no current member is within the angle threshold.
  /// Returns true if the pixel was added. A zero pixel, or one with a NaN
  /// or infinite band, has no spectral angle and never joins.
  /// `comparisons` (if non-null) is incremented by the number of angle
  /// evaluations performed, which feeds both the Full-mode cost charging
  /// and the cost-model calibration.
  bool screen(std::span<const float> pixel, std::uint64_t* comparisons = nullptr);

  /// Merge another set member-by-member under this set's threshold
  /// (the manager's step 2).
  void merge(const UniqueSet& other, std::uint64_t* comparisons = nullptr);

  /// True if any member in [begin_member, end_member) lies within the
  /// threshold angle of `pixel` (`pixel_inv_norm` = 1/|pixel|, to double
  /// precision: the float pre-filter's error bound assumes it). The
  /// screening primitive, exposed so callers can split one candidate's
  /// membership test across member ranges (e.g. a frozen prefix scanned
  /// concurrently and a small tail scanned in fold order). Decisions and
  /// counts are those of the double-precision dot8 scan; a float-width
  /// pre-filter only skips the double kernel where it cannot disagree.
  [[nodiscard]] bool any_within(std::span<const float> pixel,
                                double pixel_inv_norm,
                                std::size_t begin_member,
                                std::size_t end_member,
                                std::uint64_t* comparisons = nullptr) const;

  /// Append a member WITHOUT screening. The caller vouches that `pixel`
  /// exceeds the threshold angle to every current member.
  void admit(std::span<const float> pixel, double inv_norm);

  /// Cached 1/|member(i)|.
  [[nodiscard]] double inv_norm(std::size_t i) const { return inv_norms_[i]; }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] int bands() const { return bands_; }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] std::span<const float> member(std::size_t i) const;
  /// Flat member storage (size() * bands floats), for shipping in messages.
  [[nodiscard]] const std::vector<float>& flat() const { return data_; }
  /// The set's mean (paper step 3), summed in member order. Aborts if the
  /// set is empty.
  [[nodiscard]] std::vector<double> mean() const;

  /// Rebuild a set from flat storage (received from a worker). Members are
  /// taken as-is (already mutually distinct under the source's threshold).
  static UniqueSet from_flat(int bands, double threshold_radians,
                             std::vector<float> flat);

  /// Minimal angle from `pixel` to any member (infinity if empty).
  [[nodiscard]] double min_angle_to(std::span<const float> pixel) const;

 private:
  /// Mirror `pixel` into lane `count_ % 8` of the SoA pack (see pack_).
  void pack_member(std::span<const float> pixel);

  int bands_;
  double threshold_;
  double cos_threshold_;
  std::size_t count_ = 0;
  std::vector<float> data_;         // members, row-major (AoS: flat()/member())
  std::vector<double> inv_norms_;   // 1/|member| cache
  /// SoA member-block pack for the SIMD screening kernels: members grouped
  /// in blocks of 8, each block band-major — pack_[(blk * bands + b) * 8 +
  /// lane] is band b of member blk*8+lane. Unused lanes of the last block
  /// are zero, so `any_within` runs the same 8-wide fused-dot kernels
  /// (float dot8f, then double dot8 where needed) on every block and just
  /// ignores out-of-range lanes.
  std::vector<float> pack_;
};

/// Screen every pixel of a cube region [first_flat, last_flat) into a fresh
/// unique set (a worker's per-tile step 1).
UniqueSet screen_range(const hsi::ImageCube& cube, std::int64_t first_flat,
                       std::int64_t last_flat, double threshold_radians,
                       std::uint64_t* comparisons = nullptr);

}  // namespace rif::core
