// Sampling utilities built on Rng: subset sampling without replacement,
// O(1) categorical sampling (Walker alias method), and shuffling.

#ifndef LDP_UTIL_SAMPLING_H_
#define LDP_UTIL_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace ldp {

/// Samples `k` distinct indices uniformly from {0, ..., n-1} using Robert
/// Floyd's algorithm (k draws, no O(n) scratch) into `out` (room for k).
/// The order is not uniform over permutations; callers that need a
/// uniformly random *sequence* should shuffle it. Up to kScanMaxPicks, a
/// pick's membership test scans the picks so far (no allocation); above
/// it, a hash set keeps the cost linear. The picks are the same either way.
void SampleWithoutReplacement(uint32_t n, uint32_t k, Rng* rng, uint32_t* out);
inline constexpr uint32_t kScanMaxPicks = 32;

/// SampleWithoutReplacement into a new vector.
std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k, Rng* rng);

/// In-place Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    const size_t j = rng->UniformIndex(i);
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

/// Samples indices from a fixed discrete distribution in O(1) per draw
/// (Walker/Vose alias method). Weights need not be normalised.
class AliasSampler {
 public:
  /// Builds the alias table; `weights` must be non-empty, finite, non-negative
  /// and have a positive sum.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index with probability proportional to its weight.
  uint32_t Sample(Rng* rng) const;

  /// Number of categories.
  size_t size() const { return prob_.size(); }

  /// Normalised probability of category i (for inspection/testing).
  double Probability(uint32_t i) const { return normalized_[i]; }

 private:
  std::vector<double> prob_;       // acceptance probability per bucket
  std::vector<uint32_t> alias_;    // fallback category per bucket
  std::vector<double> normalized_; // normalised input weights
};

/// Draws a uniformly random point from the union of two disjoint intervals
/// [a1, b1] and [a2, b2] (either may be empty/degenerate). Used by mechanisms
/// whose output density is piecewise-uniform on a split support.
double UniformFromTwoIntervals(double a1, double b1, double a2, double b2,
                               Rng* rng);

}  // namespace ldp

#endif  // LDP_UTIL_SAMPLING_H_
