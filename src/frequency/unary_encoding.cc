#include "frequency/unary_encoding.h"

#include <cmath>

#include "util/check.h"

namespace ldp {

UnaryEncodingOracle::UnaryEncodingOracle(double epsilon, uint32_t domain_size,
                                         double p, double q)
    : FrequencyOracle(epsilon, domain_size), p_(p), q_(q),
      log1m_q_(std::log1p(-q)) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  LDP_CHECK(0.0 < q && q < p && p <= 1.0);
}

size_t UnaryEncodingOracle::PerturbInto(uint32_t value, Rng* rng,
                                        char* words) const {
  if (q_ <= kSkipSamplingMaxQ) return PerturbSkip(value, rng, words);
  return PerturbPerBit(value, rng, words);
}

size_t UnaryEncodingOracle::PerturbPerBit(uint32_t value, Rng* rng,
                                          char* words) const {
  LDP_DCHECK(value < domain_size());
  size_t count = 0;
  for (uint32_t bit = 0; bit < domain_size(); ++bit) {
    const double keep_prob = (bit == value) ? p_ : q_;
    if (rng->Bernoulli(keep_prob)) {
      internal_frequency::PutWord(words, count++, bit);
    }
  }
  return count;
}

size_t UnaryEncodingOracle::PerturbSkip(uint32_t value, Rng* rng,
                                        char* words) const {
  LDP_DCHECK(value < domain_size());
  size_t count = 0;
  const bool true_bit = rng->Bernoulli(p_);
  bool true_bit_pending = true_bit;
  // The d-1 non-true bits form a virtual array of i.i.d. Bernoulli(q)
  // trials; jump from set bit to set bit by drawing the geometric run of
  // unset bits in between. Virtual position v maps to bit v below `value`
  // and bit v+1 at or above it, so virtual order is bit order.
  const uint64_t virtual_size = domain_size() - 1;
  uint64_t position = 0;
  for (;;) {
    const uint64_t gap = rng->GeometricFromLog1mP(log1m_q_);
    if (gap >= virtual_size - position) break;  // no further set bit
    position += gap;
    const uint32_t bit = position < value ? static_cast<uint32_t>(position)
                                          : static_cast<uint32_t>(position) + 1;
    if (true_bit_pending && value < bit) {
      internal_frequency::PutWord(words, count++, value);
      true_bit_pending = false;
    }
    internal_frequency::PutWord(words, count++, bit);
    if (++position == virtual_size) break;
  }
  if (true_bit_pending) internal_frequency::PutWord(words, count++, value);
  return count;
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
