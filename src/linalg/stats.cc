#include "linalg/stats.h"

#include <algorithm>

#include "linalg/kernels.h"
#include "support/serialize.h"

namespace rif::linalg {

namespace {

/// Center `rows` contiguous dims-length float vectors about `shift` into
/// column-major scratch (dims columns of length rows: entry (b, r) at
/// b * rows + r), accumulating per-band sums into `s1` when non-null. The
/// layout feeds the rank-k triangle kernel: each triangle entry is then a
/// dot of two CONTIGUOUS length-`rows` columns.
void center_block(const float* pixels, int rows, int dims,
                  const double* shift, double* scratch, double* s1) {
  for (int r = 0; r < rows; ++r) {
    const float* px = pixels + static_cast<std::size_t>(r) * dims;
    for (int b = 0; b < dims; ++b) {
      const double c = static_cast<double>(px[b]) - shift[b];
      scratch[static_cast<std::size_t>(b) * rows + r] = c;
      if (s1 != nullptr) s1[b] += c;
    }
  }
}

/// One packed-triangle sweep over a centered column-major block: rank-1
/// update for single pixels (contiguous writes), register-blocked rank-k
/// otherwise.
void triangle_update(double* upper, const double* scratch, int dims,
                     int rows) {
  if (rows == 1) {
    kernels::rank1_update(upper, scratch, dims, 1.0);
  } else {
    kernels::rank_k_update(upper, scratch, dims, rows);
  }
}

}  // namespace

MomentAccumulator::MomentAccumulator(int dims, std::vector<double> origin)
    : dims_(dims), origin_(std::move(origin)) {
  RIF_CHECK(dims > 0);
  RIF_CHECK(static_cast<int>(origin_.size()) == dims);
  s1_.assign(static_cast<std::size_t>(dims), 0.0);
  upper_.assign(static_cast<std::size_t>(dims) * (dims + 1) / 2, 0.0);
}

void MomentAccumulator::add_block(const float* pixels, int rows) {
  RIF_CHECK(rows >= 0);
  if (rows == 0) return;
  // Center the block once into column-major scratch, then one rank-k sweep
  // of the packed triangle — the large, written-to operand is streamed
  // through once per block instead of once per pixel, and the vector
  // kernel covers 4 pixels per step.
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dims_) * rows);
  center_block(pixels, rows, dims_, origin_.data(), scratch.data(),
               s1_.data());
  triangle_update(upper_.data(), scratch.data(), dims_, rows);
  count_ += static_cast<std::uint64_t>(rows);
}

std::vector<double> MomentAccumulator::mean() const {
  RIF_CHECK_MSG(count_ > 0, "mean of empty set");
  std::vector<double> m(origin_);
  for (int b = 0; b < dims_; ++b) m[b] += s1_[b] / static_cast<double>(count_);
  return m;
}

Matrix MomentAccumulator::covariance() const {
  RIF_CHECK_MSG(count_ > 0, "covariance of empty set");
  Matrix cov(dims_, dims_);
  const double inv = 1.0 / static_cast<double>(count_);
  std::size_t idx = 0;
  for (int i = 0; i < dims_; ++i) {
    for (int j = i; j < dims_; ++j) {
      const double v = (upper_[idx++] - s1_[i] * s1_[j] * inv) * inv;
      cov(i, j) = v;
      cov(j, i) = v;
    }
  }
  return cov;
}

void MeanAccumulator::add(std::span<const float> pixel) {
  RIF_DCHECK(pixel.size() == sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += pixel[i];
  ++count_;
}

void MeanAccumulator::merge(const MeanAccumulator& other) {
  RIF_CHECK(other.sums_.size() == sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += other.sums_[i];
  count_ += other.count_;
}

std::vector<double> MeanAccumulator::mean() const {
  RIF_CHECK_MSG(count_ > 0, "mean of empty set");
  std::vector<double> m(sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    m[i] = sums_[i] / static_cast<double>(count_);
  }
  return m;
}

std::vector<std::uint8_t> MeanAccumulator::encode() const {
  Writer w;
  w.put<std::uint64_t>(count_);
  w.put_vector(sums_);
  return std::move(w).take();
}

MeanAccumulator MeanAccumulator::decode(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  const auto count = r.get<std::uint64_t>();
  auto sums = r.get_vector<double>();
  RIF_CHECK_MSG(!sums.empty(), "mean accumulator with zero dims");
  MeanAccumulator acc(static_cast<int>(sums.size()));
  acc.sums_ = std::move(sums);
  acc.count_ = count;
  return acc;
}

CovarianceAccumulator::CovarianceAccumulator(int dims,
                                             std::vector<double> mean)
    : dims_(dims), mean_(std::move(mean)) {
  RIF_CHECK(static_cast<int>(mean_.size()) == dims);
  upper_.assign(static_cast<std::size_t>(dims) * (dims + 1) / 2, 0.0);
}

void CovarianceAccumulator::add_block(const float* pixels, int rows) {
  RIF_CHECK(rows >= 0);
  if (rows == 0) return;
  static thread_local std::vector<double> scratch;
  scratch.resize(static_cast<std::size_t>(dims_) * rows);
  center_block(pixels, rows, dims_, mean_.data(), scratch.data(), nullptr);
  triangle_update(upper_.data(), scratch.data(), dims_, rows);
  count_ += static_cast<std::uint64_t>(rows);
}

void CovarianceAccumulator::add_rows(const float* pixels, std::uint64_t rows) {
  constexpr std::uint64_t kRows = kBlockRows;
  for (std::uint64_t i = 0; i < rows; i += kRows) {
    add_block(pixels + i * dims_, static_cast<int>(std::min(kRows, rows - i)));
  }
}

void CovarianceAccumulator::merge(const CovarianceAccumulator& other) {
  RIF_CHECK(other.dims_ == dims_);
  RIF_CHECK_MSG(other.mean_ == mean_,
                "covariance sums computed against different means");
  for (std::size_t i = 0; i < upper_.size(); ++i) upper_[i] += other.upper_[i];
  count_ += other.count_;
}

Matrix CovarianceAccumulator::covariance() const {
  RIF_CHECK_MSG(count_ > 0, "covariance of empty set");
  Matrix cov(dims_, dims_);
  const double inv = 1.0 / static_cast<double>(count_);
  std::size_t idx = 0;
  for (int i = 0; i < dims_; ++i) {
    for (int j = i; j < dims_; ++j) {
      const double v = upper_[idx++] * inv;
      cov(i, j) = v;
      cov(j, i) = v;
    }
  }
  return cov;
}

std::vector<std::uint8_t> CovarianceAccumulator::encode() const {
  Writer w;
  w.put<std::int32_t>(dims_);
  w.put<std::uint64_t>(count_);
  w.put_vector(mean_);
  w.put_vector(upper_);
  return std::move(w).take();
}

CovarianceAccumulator CovarianceAccumulator::decode(
    const std::vector<std::uint8_t>& bytes) {
  auto acc = try_decode(bytes);
  RIF_CHECK_MSG(acc.has_value(), "malformed covariance accumulator");
  return std::move(*acc);
}

std::optional<CovarianceAccumulator> CovarianceAccumulator::try_decode(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  std::int32_t dims = 0;
  std::uint64_t count = 0;
  std::vector<double> mean;
  std::vector<double> upper;
  if (!r.try_get(dims) || !r.try_get(count) || !r.try_get_vector(mean) ||
      !r.try_get_vector(upper) || !r.exhausted()) {
    return std::nullopt;
  }
  // Validate the wire payload BEFORE trusting it: a negative or mismatched
  // dims field must fail cleanly, not drive size arithmetic on garbage,
  // and the triangle is checked before one of dims' size is allocated.
  if (dims <= 0 || static_cast<std::size_t>(dims) != mean.size() ||
      upper.size() != mean.size() * (mean.size() + 1) / 2) {
    return std::nullopt;
  }
  CovarianceAccumulator acc(dims, std::move(mean));
  acc.upper_ = std::move(upper);
  acc.count_ = count;
  return acc;
}

}  // namespace rif::linalg
