// Deterministic pseudo-random number generation.
//
// All stochastic components of the simulator (scene synthesis, failure
// schedules, placement tie-breaking) draw from explicitly seeded generators
// so that every figure bench in bench/ and every seeded test in tests/ is
// reproducible bit-for-bit.
// xoshiro256** is used for speed; SplitMix64 seeds it and derives
// independent child streams.
#pragma once

#include <cstdint>

namespace rif {

/// SplitMix64: tiny generator used for seeding and stream derivation.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n) {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = sqrt_neg2log(s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Derive an independent child stream (e.g. per node, per material).
  Rng fork(std::uint64_t stream_id) {
    SplitMix64 sm(next() ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
    Rng child(0);
    for (auto& s : child.s_) s = sm.next();
    return child;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static double sqrt_neg2log(double s);

  std::uint64_t s_[4]{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace rif
