#include "frequency/olh.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ldp {

OlhOracle::OlhOracle(double epsilon, uint32_t domain_size)
    : FrequencyOracle(epsilon, domain_size) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  const double e_eps = std::exp(epsilon);
  hash_range_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(std::lround(e_eps)) + 1);
  p_ = e_eps / (e_eps + static_cast<double>(hash_range_) - 1.0);
}

uint32_t OlhOracle::HashToBucket(uint64_t seed, uint32_t value,
                                 uint32_t range) {
  // SplitMix64 finalizer over the seed/value combination: cheap, stateless,
  // and high-quality enough that bucket collisions behave as uniform.
  uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(value) + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<uint32_t>(z % range);
}

size_t OlhOracle::PerturbInto(uint32_t value, Rng* rng, char* words) const {
  LDP_DCHECK(value < domain_size());
  const uint64_t seed = rng->Next();
  uint32_t bucket = HashToBucket(seed, value, hash_range_);
  if (!rng->Bernoulli(p_)) {
    // GRR over the g buckets: uniform among the other g-1.
    uint32_t other = static_cast<uint32_t>(rng->UniformIndex(hash_range_ - 1));
    if (other >= bucket) ++other;
    bucket = other;
  }
  internal_frequency::PutWord(words, 0,
                              static_cast<uint32_t>(seed & 0xffffffffULL));
  internal_frequency::PutWord(words, 1, static_cast<uint32_t>(seed >> 32));
  internal_frequency::PutWord(words, 2, bucket);
  return 3;
}

const char* OlhOracle::Validate(ReportView report) const {
  if (report.size() != 3) {
    return "OLH report must carry {seed_lo, seed_hi, bucket}";
  }
  if (report[2] >= hash_range_) {
    return "OLH report bucket outside the hash range";
  }
  return nullptr;
}

void OlhOracle::Fold(ReportView report, uint64_t* support) const {
  const uint64_t seed = static_cast<uint64_t>(report[0]) |
                        (static_cast<uint64_t>(report[1]) << 32);
  const uint32_t bucket = report[2];
  for (uint32_t v = 0; v < domain_size(); ++v) {
    if (HashToBucket(seed, v, hash_range_) == bucket) {
      ++support[v];
    }
  }
}

std::vector<double> OlhOracle::Estimate(const std::vector<uint64_t>& support,
                                        uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_,
                                                 q());
}

double OlhOracle::EstimateVariance(double f, uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q());
}

}  // namespace ldp
