#include "core/spectral_angle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.h"
#include "linalg/stats.h"
#include "support/check.h"

namespace rif::core {

namespace {

namespace kernels = linalg::kernels;

constexpr std::size_t kLanes = kernels::kScreenLanes;

double clamp_pm1(double v) { return v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v); }

}  // namespace

double spectral_angle(std::span<const float> x, std::span<const float> y) {
  RIF_CHECK(x.size() == y.size() && !x.empty());
  double dot = 0.0, nx2 = 0.0, ny2 = 0.0;
  kernels::dot_norm(x.data(), y.data(), static_cast<int>(x.size()), &dot,
                    &nx2, &ny2);
  const double denom = std::sqrt(nx2 * ny2);
  if (denom <= 0.0) return 0.0;  // zero vector: treat as identical
  return std::acos(clamp_pm1(dot / denom));
}

UniqueSet::UniqueSet(int bands, double threshold_radians)
    : bands_(bands), threshold_(threshold_radians),
      cos_threshold_(std::cos(threshold_radians)) {
  RIF_CHECK(bands > 0);
  RIF_CHECK(valid_threshold(threshold_radians));
}

std::span<const float> UniqueSet::member(std::size_t i) const {
  RIF_DCHECK(i < count_);
  return {data_.data() + i * bands_, static_cast<std::size_t>(bands_)};
}

std::vector<double> UniqueSet::mean() const {
  linalg::MeanAccumulator acc(bands_);
  for (std::size_t i = 0; i < count_; ++i) acc.add(member(i));
  return acc.mean();
}

void UniqueSet::pack_member(std::span<const float> pixel) {
  const std::size_t lane = count_ % kLanes;
  if (lane == 0) {
    // Open a fresh zero-filled block; zero lanes keep the 8-wide kernel
    // valid on partially filled blocks.
    pack_.resize(pack_.size() + static_cast<std::size_t>(bands_) * kLanes,
                 0.0f);
  }
  float* block = pack_.data() +
                 (count_ / kLanes) * static_cast<std::size_t>(bands_) * kLanes;
  for (int b = 0; b < bands_; ++b) {
    block[static_cast<std::size_t>(b) * kLanes + lane] = pixel[b];
  }
}

bool UniqueSet::any_within(std::span<const float> pixel,
                           double pixel_inv_norm, std::size_t begin_member,
                           std::size_t end_member,
                           std::uint64_t* comparisons) const {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  RIF_DCHECK(end_member <= count_);
  // Angle test via cosine: angle <= threshold  <=>  cos >= cos(threshold).
  // Each SoA block yields 8 member dot products in one fused kernel call;
  // lanes outside [begin_member, end_member) are computed (they are free)
  // but never examined, so results and comparison counts match the
  // member-at-a-time scan exactly.
  //
  // The float-width dot8f screens first. While both norms lie in
  // [2^-50, 2^50] no float product overflows and underflow is negligible,
  // so in any summation order, FMA or not, the float dot is within
  // gamma_n * sum|x_i m_i| <= gamma_n |x||m| of the exact dot (Higham,
  // Accuracy and Stability of Numerical Algorithms, 3.1; gamma_n =
  // nu/(1-nu), u = 2^-24). Its cosine is then within gamma_n of the exact
  // cosine, and the double path's within ~1e-14 of it; `margin` covers
  // both. A lane whose float cosine clears cos(threshold) by the margin is
  // decided by it. Any other lane (borderline, NaN, or a norm out of
  // range) is decided by the double dot8 exactly as without the filter,
  // so every lane decision, early exit and count is the double path's.
  const double margin = 2.0 * bands_ * 0x1p-24;
  const double sure_hit = cos_threshold_ + margin;
  const double sure_miss = cos_threshold_ - margin;
  const auto in_range = [](double inv) {
    return inv >= 0x1p-50 && inv <= 0x1p50;
  };
  const bool filter = in_range(pixel_inv_norm);
  std::uint64_t scanned = 0;
  std::size_t m = begin_member;
  while (m < end_member) {
    const std::size_t block = m / kLanes;
    const std::size_t block_begin = block * kLanes;
    const std::size_t first = m - block_begin;
    const std::size_t lane_end =
        std::min(block_begin + kLanes, end_member) - block_begin;
    m = block_begin + lane_end;
    const float* pack =
        pack_.data() + block * static_cast<std::size_t>(bands_) * kLanes;
    const double* member_inv = inv_norms_.data() + block_begin;
    float approx[kLanes] = {};
    // NaN unless the filter covers the lane; NaN decides nothing.
    const auto approx_cosine = [&](std::size_t lane) {
      return filter && in_range(member_inv[lane])
                 ? approx[lane] * member_inv[lane] * pixel_inv_norm
                 : std::numeric_limits<double>::quiet_NaN();
    };
    if (filter) {
      kernels::dot8f(pack, pixel.data(), bands_, approx);
      // The common case, every lane a sure miss, without a branch per lane.
      bool all_miss = true;
      for (std::size_t lane = first; lane < lane_end; ++lane) {
        all_miss &= approx_cosine(lane) <= sure_miss;
      }
      if (all_miss) {
        scanned += lane_end - first;
        continue;
      }
    }
    double dots[kLanes] = {};
    bool exact = false;
    for (std::size_t lane = first; lane < lane_end; ++lane) {
      ++scanned;
      const double cosine = approx_cosine(lane);
      if (cosine <= sure_miss) continue;
      if (!(cosine >= sure_hit)) {
        if (!exact) {
          kernels::dot8(pack, pixel.data(), bands_, dots);
          exact = true;
        }
        const double exact_cosine =
            dots[lane] * member_inv[lane] * pixel_inv_norm;
        if (!(exact_cosine >= cos_threshold_)) continue;
      }
      if (comparisons != nullptr) *comparisons += scanned;  // close to one
      return true;
    }
  }
  if (comparisons != nullptr) *comparisons += scanned;
  return false;
}

void UniqueSet::admit(std::span<const float> pixel, double inv_norm) {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  pack_member(pixel);
  data_.insert(data_.end(), pixel.begin(), pixel.end());
  inv_norms_.push_back(inv_norm);
  ++count_;
}

bool UniqueSet::screen(std::span<const float> pixel,
                       std::uint64_t* comparisons) {
  RIF_DCHECK(static_cast<int>(pixel.size()) == bands_);
  const double norm2 =
      kernels::dot(pixel.data(), pixel.data(), bands_);
  // Degenerate pixels never join: a zero pixel has no direction, and a NaN
  // or infinite band (the only way norm2 is not finite) has no angle.
  if (!(norm2 > 0.0 && std::isfinite(norm2))) return false;
  const double inv = 1.0 / std::sqrt(norm2);
  if (any_within(pixel, inv, 0, count_, comparisons)) return false;
  admit(pixel, inv);
  return true;
}

void UniqueSet::merge(const UniqueSet& other, std::uint64_t* comparisons) {
  RIF_CHECK(other.bands_ == bands_);
  for (std::size_t i = 0; i < other.count_; ++i) {
    screen(other.member(i), comparisons);
  }
}

UniqueSet UniqueSet::from_flat(int bands, double threshold_radians,
                               std::vector<float> flat) {
  RIF_CHECK(flat.size() % static_cast<std::size_t>(bands) == 0);
  UniqueSet set(bands, threshold_radians);
  const std::size_t count = flat.size() / bands;
  set.data_ = std::move(flat);
  set.inv_norms_.resize(count);
  for (std::size_t m = 0; m < count; ++m) {
    const float* mem = set.data_.data() + m * bands;
    const double n2 = linalg::kernels::dot(mem, mem, bands);
    RIF_CHECK_MSG(n2 > 0.0 && std::isfinite(n2),
                  "zero or non-finite vector in flat unique set");
    set.inv_norms_[m] = 1.0 / std::sqrt(n2);
    set.pack_member({mem, static_cast<std::size_t>(bands)});
    ++set.count_;
  }
  return set;
}

double UniqueSet::min_angle_to(std::span<const float> pixel) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < count_; ++m) {
    best = std::min(best, spectral_angle(member(m), pixel));
  }
  return best;
}

UniqueSet screen_range(const hsi::ImageCube& cube, std::int64_t first_flat,
                       std::int64_t last_flat, double threshold_radians,
                       std::uint64_t* comparisons) {
  RIF_CHECK(first_flat >= 0 && last_flat <= cube.pixel_count() &&
            first_flat <= last_flat);
  UniqueSet set(cube.bands(), threshold_radians);
  for (std::int64_t p = first_flat; p < last_flat; ++p) {
    set.screen(cube.pixel(p), comparisons);
  }
  return set;
}

}  // namespace rif::core
