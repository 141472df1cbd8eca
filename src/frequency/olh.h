// Optimized local hashing (Wang et al., USENIX Security 2017). Each user
// hashes her value into a small domain of g = round(e^ε) + 1 buckets with a
// per-report random hash seed, then runs GRR over the g buckets. The report
// is (seed, perturbed bucket): constant size regardless of k, at the cost of
// an O(k) server-side scan per report. Matches OUE's variance
// 4 e^ε / (n (e^ε − 1)²) when g = e^ε + 1 exactly.

#ifndef LDP_FREQUENCY_OLH_H_
#define LDP_FREQUENCY_OLH_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// OLH: per-user random hashing into g buckets followed by GRR on buckets.
/// Report payload: {seed_lo32, seed_hi32, perturbed_bucket}.
class OlhOracle final : public FrequencyOracle {
 public:
  OlhOracle(double epsilon, uint32_t domain_size);

  size_t PerturbInto(uint32_t value, Rng* rng, char* words) const override;
  const char* Validate(ReportView report) const override;
  void Fold(ReportView report, uint64_t* support) const override;
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  size_t MaxReportSize() const override { return 3; }
  const char* name() const override { return "OLH"; }

  /// The hash range g = max(2, round(e^ε) + 1).
  uint32_t hash_range() const { return hash_range_; }

  /// Probability that the hashed bucket is reported unchanged,
  /// e^ε / (e^ε + g − 1).
  double p() const { return p_; }

  /// Probability that a report supports a non-true value, 1/g (a uniformly
  /// hashed wrong value collides with the reported bucket with this rate).
  double q() const { return 1.0 / static_cast<double>(hash_range_); }

  /// The deterministic seeded hash used by both protocol halves: maps
  /// (seed, value) to a bucket in [0, range).
  static uint32_t HashToBucket(uint64_t seed, uint32_t value, uint32_t range);

 private:
  uint32_t hash_range_;
  double p_;
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_OLH_H_
