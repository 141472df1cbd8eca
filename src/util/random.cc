#include "util/random.h"

#include <cmath>

namespace ldp {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// SplitMix64: used only to expand the user seed into the xoshiro state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
  // An all-zero state would be a fixed point; SplitMix64 cannot emit four
  // zeros from any seed, but keep the guard for safety.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

Rng Rng::Fork() { return Rng(Next()); }

double Rng::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  LDP_DCHECK(lo < hi);
  return lo + (hi - lo) * Uniform01();
}

uint64_t Rng::UniformIndex(uint64_t n) {
  LDP_DCHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto low = static_cast<uint64_t>(m);
  if (low < n) {
    const uint64_t threshold = -n % n;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  LDP_DCHECK(lo <= hi);
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformIndex(span));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform01() < p;
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * scale;
  has_spare_gaussian_ = true;
  return u * scale;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double lambda) {
  LDP_DCHECK(lambda > 0.0);
  // 1 - Uniform01() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - Uniform01()) / lambda;
}

double Rng::Laplace(double scale) {
  LDP_DCHECK(scale > 0.0);
  const double u = Uniform01() - 0.5;
  const double sign = u < 0.0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

uint64_t Rng::Geometric(double p) {
  LDP_DCHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return GeometricFromLog1mP(std::log1p(-p));
}

uint64_t Rng::GeometricFromLog1mP(double log1m_p) {
  const double u = 1.0 - Uniform01();  // in (0, 1]
  const double failures = std::floor(std::log(u) / log1m_p);
  // Clamp before converting: for tiny p the tail can exceed the uint64
  // range, and double->uint64 conversion of an out-of-range value is UB.
  constexpr double kMax = 9007199254740992.0;  // 2^53
  return failures < kMax ? static_cast<uint64_t>(failures)
                         : static_cast<uint64_t>(kMax);
}

}  // namespace ldp
