// Distributed-friendly statistics accumulators.
//
// Steps 3-5 of the paper compute a mean vector and a covariance matrix of
// the screened ("unique") pixel set, with the covariance *sums* computed
// concurrently by workers and averaged sequentially by the manager. These
// accumulators are the exact objects workers ship around: they merge by
// addition, so any partition of the pixel set gives the same result.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace rif::linalg {

/// Accumulates per-band sums for the mean vector (paper step 3).
class MeanAccumulator {
 public:
  explicit MeanAccumulator(int dims) : sums_(dims, 0.0) {}

  void add(std::span<const float> pixel);
  void merge(const MeanAccumulator& other);

  [[nodiscard]] std::vector<double> mean() const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] int dims() const { return static_cast<int>(sums_.size()); }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static MeanAccumulator decode(const std::vector<std::uint8_t>& bytes);

 private:
  std::vector<double> sums_;
  std::uint64_t count_ = 0;
};

/// Single-pass moment accumulator about a fixed provisional origin `m₀`:
///
///     S1 = Σ (x − m₀)          S2 = Σ (x − m₀)(x − m₀)ᵀ
///
/// It accumulates both moments in ONE sweep and corrects against the true
/// mean afterwards:
///
///     μ = m₀ + S1/K,   Σ (x−μ)(x−μ)ᵀ = S2 − S1·S1ᵀ/K.
///
/// No engine uses it: every engine computes the mean first and then the
/// sharded CovarianceAccumulator sums. It is kept only for perfbench's
/// `core.moment_ms` probe.
class MomentAccumulator {
 public:
  MomentAccumulator(int dims, std::vector<double> origin);

  void add(std::span<const float> pixel) { add_block(pixel.data(), 1); }
  /// Cache-blocked bulk add of `rows` contiguous dims-length vectors: the
  /// packed triangle is walked once per *block* instead of once per pixel
  /// (see the kernel in stats.cc).
  void add_block(const float* pixels, int rows);

  [[nodiscard]] std::vector<double> mean() const;
  /// The mean-corrected, averaged covariance matrix (see class comment).
  [[nodiscard]] Matrix covariance() const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] int dims() const { return dims_; }

 private:
  int dims_;
  std::vector<double> origin_;
  std::vector<double> s1_;     // Σ (x − m₀)
  std::vector<double> upper_;  // Σ (x − m₀)(x − m₀)ᵀ, packed upper, row-major
  std::uint64_t count_ = 0;
};

/// Accumulates the covariance sum  Σ (x−m)(x−m)ᵀ  (paper step 4).
/// Only the upper triangle is stored; covariance() mirrors it.
class CovarianceAccumulator {
 public:
  /// Rows per add_block chunk when an engine walks a contiguous member
  /// range. Shared by the sequential, shared-memory and distributed paths
  /// so identical ranges produce bit-identical partial sums.
  static constexpr int kBlockRows = 32;

  CovarianceAccumulator(int dims, std::vector<double> mean);

  void add(std::span<const float> pixel) { add_block(pixel.data(), 1); }
  /// Bulk add of `rows` contiguous dims-length vectors through the
  /// register-blocked rank-k kernel (one packed-triangle sweep per block,
  /// 4 pixels per vector step) — the hot path of every engine's covariance.
  void add_block(const float* pixels, int rows);
  /// Add `rows` contiguous vectors in kBlockRows blocks: the one blocking
  /// every engine and shard uses, so equal member ranges give bit-identical
  /// sums.
  void add_rows(const float* pixels, std::uint64_t rows);
  void merge(const CovarianceAccumulator& other);

  /// The averaged covariance matrix (paper step 5): sum / count.
  [[nodiscard]] Matrix covariance() const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static CovarianceAccumulator decode(const std::vector<std::uint8_t>& bytes);
  /// Non-aborting decode for payloads off the socket plane.
  static std::optional<CovarianceAccumulator> try_decode(
      const std::vector<std::uint8_t>& bytes);

  /// Flops charged per added pixel of dimension n (upper triangle MACs).
  static double flops_per_pixel(int n) { return 0.5 * n * (n + 3.0); }

 private:
  int dims_;
  std::vector<double> mean_;
  std::vector<double> upper_;  // packed upper triangle, row-major
  std::uint64_t count_ = 0;
};

}  // namespace rif::linalg
