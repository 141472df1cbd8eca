#include "frequency/unary_encoding.h"

#include <cmath>

#include "util/check.h"

namespace ldp {

UnaryEncodingOracle::UnaryEncodingOracle(double epsilon, uint32_t domain_size,
                                         double p, double q)
    : FrequencyOracle(epsilon, domain_size), p_(p), q_(q) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  LDP_CHECK(0.0 < q && q < p && p <= 1.0);
}

FrequencyOracle::Report UnaryEncodingOracle::Perturb(uint32_t value,
                                                     Rng* rng) const {
  if (q_ <= kSkipSamplingMaxQ) return PerturbSkip(value, rng);
  return PerturbPerBit(value, rng);
}

FrequencyOracle::Report UnaryEncodingOracle::PerturbPerBit(uint32_t value,
                                                           Rng* rng) const {
  LDP_DCHECK(value < domain_size());
  Report set_bits;
  for (uint32_t bit = 0; bit < domain_size(); ++bit) {
    const double keep_prob = (bit == value) ? p_ : q_;
    if (rng->Bernoulli(keep_prob)) set_bits.push_back(bit);
  }
  return set_bits;
}

FrequencyOracle::Report UnaryEncodingOracle::PerturbSkip(uint32_t value,
                                                         Rng* rng) const {
  LDP_DCHECK(value < domain_size());
  Report set_bits;
  const bool true_bit = rng->Bernoulli(p_);
  bool true_bit_pending = true_bit;
  // The d-1 non-true bits form a virtual array of i.i.d. Bernoulli(q)
  // trials; jump from set bit to set bit by drawing the geometric run of
  // unset bits in between. Virtual position v maps to bit v below `value`
  // and bit v+1 at or above it, so virtual order is bit order.
  const uint64_t virtual_size = domain_size() - 1;
  uint64_t position = 0;
  for (;;) {
    const uint64_t gap = rng->Geometric(q_);
    if (gap >= virtual_size - position) break;  // no further set bit
    position += gap;
    const uint32_t bit = position < value ? static_cast<uint32_t>(position)
                                          : static_cast<uint32_t>(position) + 1;
    if (true_bit_pending && value < bit) {
      set_bits.push_back(value);
      true_bit_pending = false;
    }
    set_bits.push_back(bit);
    if (++position == virtual_size) break;
  }
  if (true_bit_pending) set_bits.push_back(value);
  return set_bits;
}

const char* UnaryEncodingOracle::Validate(ReportView report) const {
  static constexpr internal_frequency::SortedIndexErrors kErrors = {
      "unary report has more bits than the domain",
      "unary report bit outside the domain",
      "unary report bits must be strictly increasing"};
  return internal_frequency::ValidateSortedIndices(report, domain_size(),
                                                   kErrors);
}

void UnaryEncodingOracle::Fold(ReportView report, double* support) const {
  internal_frequency::FoldIndices(report, support);
}

std::vector<double> UnaryEncodingOracle::Estimate(
    const std::vector<double>& support, uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_, q_);
}

double UnaryEncodingOracle::EstimateVariance(double f,
                                             uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q_);
}

}  // namespace ldp
