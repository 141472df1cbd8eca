// Generalized randomized response (k-RR): the direct extension of Warner's
// 1965 randomized response to a k-value domain. The user reports her true
// value with probability p = e^ε / (e^ε + k − 1) and any specific other value
// with probability q = 1 / (e^ε + k − 1). Best-in-class when k < e^ε + 2;
// degrades linearly in k beyond that (OUE/OLH then dominate).

#ifndef LDP_FREQUENCY_GRR_H_
#define LDP_FREQUENCY_GRR_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// k-ary randomized response; report payload is the single perturbed value.
class GrrOracle final : public FrequencyOracle {
 public:
  /// `epsilon` > 0 and finite, `domain_size` >= 2 (validated by the factory;
  /// direct construction LDP_CHECKs).
  GrrOracle(double epsilon, uint32_t domain_size);

  size_t PerturbInto(uint32_t value, Rng* rng, char* words) const override;
  const char* Validate(ReportView report) const override;
  void Fold(ReportView report, double* support) const override;
  std::vector<double> Estimate(const std::vector<double>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  size_t MaxReportSize() const override { return 1; }
  const char* name() const override { return "GRR"; }

  /// Probability of reporting the true value, e^ε / (e^ε + k − 1).
  double p() const { return p_; }

  /// Probability of reporting one specific other value, 1 / (e^ε + k − 1).
  double q() const { return q_; }

 private:
  double p_;
  double q_;
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_GRR_H_
