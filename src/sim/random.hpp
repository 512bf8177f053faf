// Deterministic random number generation for workloads.
//
// Experiments must be reproducible run-to-run, so everything random in the
// project draws from an explicitly-seeded Rng (xoshiro256**) instead of
// std::random_device / global state. The TPC-C NURand generator lives here
// too because several workloads reuse it.
#pragma once

#include <cstdint>
#include <vector>

namespace trail::sim {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Fork an independent, deterministically derived stream.
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// TPC-C NURand(A, x, y): non-uniform random over [x, y] (TPC-C clause 2.1.6).
/// C is the per-run constant; the standard ties it to A.
std::int64_t nurand(Rng& rng, std::int64_t a, std::int64_t x, std::int64_t y, std::int64_t c);

}  // namespace trail::sim
