// Histogram-encoding frequency oracles (Wang et al., USENIX Security 2017):
// the remaining two members of the pure-protocol family alongside
// GRR/SUE/OUE/OLH.
//
//  - HE ("summation with histogram encoding"): the user one-hot encodes her
//    value and adds independent Laplace(2/ε) noise to every component,
//    reporting the full noisy vector; the server averages component v over
//    users to estimate f_v directly. Simple, but the Laplace tails make it
//    strictly worse than OUE.
//  - THE ("thresholding with histogram encoding"): same noisy vector, but
//    each component is reduced to the bit [noisy > θ]. The support
//    probabilities become p = 1 − F(θ − 1), q = 1 − F(θ) for the Laplace CDF
//    F, and the usual debiasing applies. θ ∈ (0.5, 1) trades p against q;
//    the default θ optimises the estimate variance numerically.

#ifndef LDP_FREQUENCY_HISTOGRAM_ENCODING_H_
#define LDP_FREQUENCY_HISTOGRAM_ENCODING_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// HE: report payload is the noisy histogram scaled to fixed point (each
/// component stored as round(value · kFixedPointScale) offset to stay
/// non-negative in the uint32 payload). Fold sums each word's low and high
/// 16 bits into two counts per value, so a count grows by under 2^16 per
/// report and holds 2^48 reports; Estimate rejoins the halves and removes
/// the offset and the scale once.
class HeOracle final : public FrequencyOracle {
 public:
  /// Fixed-point scale used to pack doubles into the uint32 report payload.
  static constexpr double kFixedPointScale = 1024.0 * 1024.0;
  /// Payload offset keeping packed values positive (Laplace tails beyond
  /// ±2047 are clamped; at scale 2/ε this is > 1000σ for any sane ε).
  static constexpr double kOffset = 2048.0;

  HeOracle(double epsilon, uint32_t domain_size);

  size_t PerturbInto(uint32_t value, Rng* rng, char* words) const override;
  const char* Validate(ReportView report) const override;
  void Fold(ReportView report, uint64_t* support) const override;
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  size_t SupportSize() const override { return 2 * size_t{domain_size()}; }
  uint64_t MaxFoldPerReport() const override { return 0xFFFF; }
  const char* name() const override { return "HE"; }

  /// The Laplace noise scale 2/ε.
  double noise_scale() const { return noise_scale_; }

 private:
  double noise_scale_;
};

/// THE: report payload is the indices whose noisy component exceeded θ.
class TheOracle final : public FrequencyOracle {
 public:
  /// Uses the variance-optimal threshold for the given ε.
  TheOracle(double epsilon, uint32_t domain_size);

  /// Explicit threshold θ ∈ (0.5, 1) (exposed for the threshold ablation).
  TheOracle(double epsilon, uint32_t domain_size, double theta);

  size_t PerturbInto(uint32_t value, Rng* rng, char* words) const override;
  const char* Validate(ReportView report) const override;
  void Fold(ReportView report, uint64_t* support) const override;
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;
  const char* name() const override { return "THE"; }

  double theta() const { return theta_; }

  /// Pr[bit reported | true value]: 1 − F(θ − 1).
  double p() const { return p_; }

  /// Pr[bit reported | other value]: 1 − F(θ).
  double q() const { return q_; }

  /// The θ minimising the small-frequency estimate variance
  /// 2 e^{εθ/2} / (e^{ε(θ−1/2)} − 1)², found by golden-section search.
  static double OptimalTheta(double epsilon);

 private:
  double theta_;
  double noise_scale_;
  double p_;
  double q_;
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_HISTOGRAM_ENCODING_H_
