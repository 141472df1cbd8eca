// Shared implementation of unary-encoding frequency oracles (SUE and OUE).
//
// The user one-hot encodes her value into a k-bit vector, then flips each bit
// independently: a 1-bit stays 1 with probability p, a 0-bit becomes 1 with
// probability q. Reporting bit ratios (p, q) with p(1−q) / (q(1−p)) ≤ e^ε
// yields ε-LDP. SUE uses the symmetric choice p = e^{ε/2}/(e^{ε/2}+1),
// q = 1 − p; OUE fixes p = 1/2 and q = 1/(e^ε+1), which minimises the
// estimate variance at small true frequencies (Wang et al. 2017).
//
// Perturb cost: the naive encoding draws one Bernoulli per domain value —
// O(d) RNG work per report, the compute-dominant regime for unary oracles at
// large domains. When q is small the set of flipped-on zero-bits is sparse,
// so Perturb instead samples the gaps between set bits geometrically
// (expected O(q·d + 1) draws); the report distribution is identical (the
// run lengths between successes of i.i.d. Bernoulli(q) trials are i.i.d.
// geometric). Both implementations are exposed so tests can verify the
// statistical equivalence.

#ifndef LDP_FREQUENCY_UNARY_ENCODING_H_
#define LDP_FREQUENCY_UNARY_ENCODING_H_

#include "frequency/frequency_oracle.h"

namespace ldp {

/// Base for SUE/OUE; report payload is the sorted indices of the set bits.
class UnaryEncodingOracle : public FrequencyOracle {
 public:
  /// Above this q the dense per-bit encoder wins: a geometric draw costs a
  /// log() where a Bernoulli costs one compare, so gap skipping only pays
  /// once set bits are expected at least ~5 positions apart.
  static constexpr double kSkipSamplingMaxQ = 0.2;

  /// Dispatches to PerturbSkip when q <= kSkipSamplingMaxQ, else PerturbPerBit.
  size_t PerturbInto(uint32_t value, Rng* rng, char* words) const override;

  /// Reference O(d) implementation: one Bernoulli per domain value, in bit
  /// order. Writes like PerturbInto.
  size_t PerturbPerBit(uint32_t value, Rng* rng, char* words) const;

  /// Sublinear implementation: one Bernoulli for the true bit, then the
  /// q-probability bits via geometric gap skipping — expected O(q·d + 1)
  /// draws. Identically distributed to PerturbPerBit (different Rng
  /// consumption). Writes like PerturbInto.
  size_t PerturbSkip(uint32_t value, Rng* rng, char* words) const;

  const char* Validate(ReportView report) const override;
  void Fold(ReportView report, uint64_t* support) const override;
  std::vector<double> Estimate(const std::vector<uint64_t>& support,
                               uint64_t num_reports) const override;
  double EstimateVariance(double f, uint64_t num_reports) const override;

  /// Probability that the true value's bit is reported as 1.
  double p() const { return p_; }

  /// Probability that any other bit is reported as 1.
  double q() const { return q_; }

 protected:
  /// `epsilon` > 0 and finite, `domain_size` >= 2, 0 < q < p <= 1.
  UnaryEncodingOracle(double epsilon, uint32_t domain_size, double p, double q);

 private:
  double p_;
  double q_;
  double log1m_q_;  // log1p(-q), the gap sampler's constant
};

}  // namespace ldp

#endif  // LDP_FREQUENCY_UNARY_ENCODING_H_
