#include "sim/random.hpp"

#include <cmath>
#include <stdexcept>

namespace trail::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
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

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  // Unsigned throughout: hi - lo overflows int64 for ranges wider than
  // 2^63, and range wraps to 0 exactly for the full 64-bit range.
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base + 1;
  if (range == 0) return static_cast<std::int64_t>(next());
  // Unbiased rejection sampling (Lemire-style threshold). The threshold
  // 2^64 mod range is below range, so only r < range needs it.
  for (;;) {
    const std::uint64_t r = next();
    if (r >= range || r >= (0 - range) % range)
      return static_cast<std::int64_t>(base + r % range);
  }
}

double Rng::uniform01() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean must be positive");
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

Rng Rng::split() { return Rng{next() ^ 0xd2b74407b1ce6e93ULL}; }

std::int64_t nurand(Rng& rng, std::int64_t a, std::int64_t x, std::int64_t y, std::int64_t c) {
  const std::int64_t r1 = rng.uniform(0, a);
  const std::int64_t r2 = rng.uniform(x, y);
  return (((r1 | r2) + c) % (y - x + 1)) + x;
}

}  // namespace trail::sim
