// Deterministic random number generation.
//
// All randomness in the library flows through Rng so that every experiment,
// test and benchmark is exactly reproducible from a 64-bit seed. The core
// generator is xoshiro256++ (Blackman & Vigna), seeded via SplitMix64; the
// variate transforms (uniform, Bernoulli, Laplace, Gaussian, exponential,
// geometric) are implemented here rather than with <random> distributions so
// that streams are stable across standard-library implementations.

#ifndef LDP_UTIL_RANDOM_H_
#define LDP_UTIL_RANDOM_H_

#include <cstdint>
#include <limits>

#include "util/check.h"

namespace ldp {

/// A small, fast, deterministic pseudo-random generator (xoshiro256++).
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// plugged into <random> distributions when stream stability is not needed.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed; equal seeds give equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next(); }

  /// Next raw 64 random bits.
  uint64_t Next();

  /// Forks an independent child generator; used to give each worker thread or
  /// simulated user its own stream while staying reproducible.
  Rng Fork();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double Uniform01();

  /// Uniform double in [lo, hi). Requires lo < hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  uint64_t UniformIndex(uint64_t n);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal variate (Marsaglia polar method).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Exponential variate with rate `lambda` (mean 1/lambda).
  double Exponential(double lambda);

  /// Laplace variate centred at 0 with scale b (variance 2 b^2).
  double Laplace(double scale);

  /// Geometric variate: number of failures before the first success for a
  /// trial with success probability p in (0, 1].
  uint64_t Geometric(double p);

  /// Geometric(p) for p < 1, given log1p(-p): the same variate from the same
  /// draw, for callers that draw many with one p.
  uint64_t GeometricFromLog1mP(double log1m_p);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace ldp

#endif  // LDP_UTIL_RANDOM_H_
