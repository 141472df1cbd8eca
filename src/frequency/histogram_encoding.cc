#include "frequency/histogram_encoding.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace ldp {

namespace {

// Laplace(b) upper tail: Pr[X > x].
double LaplaceUpperTail(double x, double b) {
  if (x >= 0.0) return 0.5 * std::exp(-x / b);
  return 1.0 - 0.5 * std::exp(x / b);
}

}  // namespace

// ---------------------------------------------------------------------------
// HE
// ---------------------------------------------------------------------------

HeOracle::HeOracle(double epsilon, uint32_t domain_size)
    : FrequencyOracle(epsilon, domain_size), noise_scale_(2.0 / epsilon) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
}

size_t HeOracle::PerturbInto(uint32_t value, Rng* rng, char* words) const {
  LDP_DCHECK(value < domain_size());
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const double one_hot = (v == value) ? 1.0 : 0.0;
    double noisy = one_hot + rng->Laplace(noise_scale_);
    // Clamp into the packable range; at scale 2/ε this tail is negligible
    // for any practical budget.
    noisy = Clamp(noisy, -kOffset, kOffset);
    internal_frequency::PutWord(
        words, v,
        static_cast<uint32_t>(
            std::llround((noisy + kOffset) * kFixedPointScale)));
  }
  return domain_size();
}

const char* HeOracle::Validate(ReportView report) const {
  if (report.size() != domain_size()) {
    return "HE report must carry one component per domain value";
  }
  return nullptr;
}

void HeOracle::Fold(ReportView report, uint64_t* support) const {
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const uint32_t word = report[v];
    support[2 * v] += word & 0xFFFF;
    support[2 * v + 1] += word >> 16;
  }
}

std::vector<double> HeOracle::Estimate(const std::vector<uint64_t>& support,
                                       uint64_t num_reports) const {
  LDP_DCHECK(support.size() == SupportSize());
  std::vector<double> estimates(domain_size(), 0.0);
  if (num_reports == 0) return estimates;
  // Σ_i (word_i / scale − offset) / n, with the word sum rejoined from its
  // halves and n·offset·scale taken off in integers first: the only
  // roundings are the two below.
  const __int128 offset = static_cast<__int128>(num_reports) *
                          static_cast<int64_t>(kOffset * kFixedPointScale);
  const double n = static_cast<double>(num_reports);
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const __int128 words = static_cast<__int128>(support[2 * v]) +
                           (static_cast<__int128>(support[2 * v + 1]) << 16);
    const __int128 centered = words - offset;
    estimates[v] = static_cast<double>(centered) / kFixedPointScale / n;
  }
  return estimates;
}

double HeOracle::EstimateVariance(double f, uint64_t num_reports) const {
  if (num_reports == 0) return 0.0;
  // Per-report component variance: Laplace noise (2 b²) plus the one-hot
  // indicator's own variance f(1-f).
  return (2.0 * noise_scale_ * noise_scale_ + f * (1.0 - f)) /
         static_cast<double>(num_reports);
}

// ---------------------------------------------------------------------------
// THE
// ---------------------------------------------------------------------------

double TheOracle::OptimalTheta(double epsilon) {
  const double b = 2.0 / epsilon;
  auto variance_proxy = [&](double theta) {
    const double p = LaplaceUpperTail(theta - 1.0, b);
    const double q = LaplaceUpperTail(theta, b);
    const double gap = p - q;
    return q * (1.0 - q) / (gap * gap);
  };
  // Ternary search on (0.5, 1): the proxy is unimodal in θ.
  double lo = 0.5, hi = 1.0;
  for (int iter = 0; iter < 200 && hi - lo > 1e-12; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (variance_proxy(m1) < variance_proxy(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return 0.5 * (lo + hi);
}

TheOracle::TheOracle(double epsilon, uint32_t domain_size)
    : TheOracle(epsilon, domain_size, OptimalTheta(epsilon)) {}

TheOracle::TheOracle(double epsilon, uint32_t domain_size, double theta)
    : FrequencyOracle(epsilon, domain_size),
      theta_(theta),
      noise_scale_(2.0 / epsilon) {
  LDP_CHECK(std::isfinite(epsilon) && epsilon > 0.0);
  LDP_CHECK(domain_size >= 2);
  LDP_CHECK_MSG(theta > 0.5 && theta < 1.0, "theta must be in (0.5, 1)");
  p_ = LaplaceUpperTail(theta_ - 1.0, noise_scale_);
  q_ = LaplaceUpperTail(theta_, noise_scale_);
}

size_t TheOracle::PerturbInto(uint32_t value, Rng* rng, char* words) const {
  LDP_DCHECK(value < domain_size());
  size_t count = 0;
  for (uint32_t v = 0; v < domain_size(); ++v) {
    const double one_hot = (v == value) ? 1.0 : 0.0;
    if (one_hot + rng->Laplace(noise_scale_) > theta_) {
      internal_frequency::PutWord(words, count++, v);
    }
  }
  return count;
}

const char* TheOracle::Validate(ReportView report) const {
  static constexpr internal_frequency::SortedIndexErrors kErrors = {
      "THE report has more bits than the domain",
      "THE report bit outside the domain",
      "THE report bits must be strictly increasing"};
  return internal_frequency::ValidateSortedIndices(report, domain_size(),
                                                   kErrors);
}

void TheOracle::Fold(ReportView report, uint64_t* support) const {
  internal_frequency::FoldIndices(report, support);
}

std::vector<double> TheOracle::Estimate(const std::vector<uint64_t>& support,
                                        uint64_t num_reports) const {
  LDP_DCHECK(support.size() == domain_size());
  return internal_frequency::DebiasSupportCounts(support, num_reports, p_,
                                                 q_);
}

double TheOracle::EstimateVariance(double f, uint64_t num_reports) const {
  return internal_frequency::SupportEstimateVariance(f, num_reports, p_, q_);
}

}  // namespace ldp
