#include "frequency/grr.h"

#include <cmath>

#include "util/check.h"

namespace ldp {

GrrOracle::GrrOracle(double epsilon, uint32_t domain_size)
    : FrequencyOracle(epsilon, domain_size) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  const double e_eps = std::exp(epsilon);
  p_ = e_eps / (e_eps + static_cast<double>(domain_size) - 1.0);
  q_ = 1.0 / (e_eps + static_cast<double>(domain_size) - 1.0);
}

size_t GrrOracle::PerturbInto(uint32_t value, Rng* rng, char* words) const {
  LDP_DCHECK(value < domain_size());
  uint32_t reported = value;
  if (!rng->Bernoulli(p_)) {
    // Uniform over the other k-1 values: draw from [0, k-1) and skip `value`.
    reported = static_cast<uint32_t>(rng->UniformIndex(domain_size() - 1));
    if (reported >= value) ++reported;
  }
  internal_frequency::PutWord(words, 0, reported);
  return 1;
}

const char* GrrOracle::Validate(ReportView report) const {
  if (report.size() != 1) return "GRR report must carry exactly one value";
  if (report[0] >= domain_size()) return "GRR report value outside the domain";
  return nullptr;
}

void GrrOracle::Fold(ReportView report, double* support) const {
  support[report[0]] += 1.0;
}

std::vector<double> GrrOracle::Estimate(const std::vector<double>& support,
                                        uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_, q_);
}

double GrrOracle::EstimateVariance(double f, uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q_);
}

}  // namespace ldp
