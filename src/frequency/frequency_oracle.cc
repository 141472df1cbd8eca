#include "frequency/frequency_oracle.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "frequency/grr.h"
#include "frequency/histogram_encoding.h"
#include "frequency/olh.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "util/check.h"

namespace ldp {

namespace {

// Runs `fn` on a view of `report`. A Report holds host-order words and a
// view reads little-endian ones: the same bytes on little-endian hosts, a
// byte-swapped copy elsewhere.
template <typename Fn>
auto WithView(const FrequencyOracle::Report& report, Fn fn) {
  if constexpr (internal_wire::kHostIsLittleEndian) {
    return fn(FrequencyOracle::ReportView(
        reinterpret_cast<const char*>(report.data()), report.size()));
  } else {
    std::string words(4 * report.size(), '\0');
    for (size_t i = 0; i < report.size(); ++i) {
      const uint32_t word = internal_wire::ToLittleEndian(report[i]);
      std::memcpy(&words[4 * i], &word, sizeof(word));
    }
    return fn(FrequencyOracle::ReportView(words.data(), report.size()));
  }
}

}  // namespace

void FrequencyOracle::Accumulate(const Report& report,
                                 std::vector<uint64_t>* support) const {
  LDP_DCHECK(support->size() == SupportSize());
  WithView(report, [&](ReportView view) {
    LDP_DCHECK(Validate(view) == nullptr);
    Fold(view, support->data());
  });
}

FrequencyOracle::Report FrequencyOracle::Perturb(uint32_t value,
                                                 Rng* rng) const {
  // Uninitialised: zeroing room for the longest report would cost O(d) where
  // the sparse oracles write O(q·d + 1) words.
  const std::unique_ptr<char[]> words(new char[4 * MaxReportSize()]);
  Report report(PerturbInto(value, rng, words.get()));
  for (size_t i = 0; i < report.size(); ++i) {
    report[i] = internal_wire::LoadLittleEndian<uint32_t>(&words[4 * i]);
  }
  return report;
}

const char* FrequencyOracleKindToString(FrequencyOracleKind kind) {
  switch (kind) {
    case FrequencyOracleKind::kGrr:
      return "GRR";
    case FrequencyOracleKind::kSue:
      return "SUE";
    case FrequencyOracleKind::kOue:
      return "OUE";
    case FrequencyOracleKind::kOlh:
      return "OLH";
    case FrequencyOracleKind::kHe:
      return "HE";
    case FrequencyOracleKind::kThe:
      return "THE";
  }
  return "unknown";
}

Result<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    FrequencyOracleKind kind, double epsilon, uint32_t domain_size) {
  if (!(std::isfinite(epsilon) && epsilon > 0.0)) {
    return Status::InvalidArgument("privacy budget must be finite and > 0");
  }
  if (domain_size < 2) {
    return Status::InvalidArgument("categorical domain needs >= 2 values");
  }
  std::unique_ptr<FrequencyOracle> oracle;
  switch (kind) {
    case FrequencyOracleKind::kGrr:
      oracle = std::make_unique<GrrOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kSue:
      oracle = std::make_unique<SueOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kOue:
      oracle = std::make_unique<OueOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kOlh:
      oracle = std::make_unique<OlhOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kHe:
      oracle = std::make_unique<HeOracle>(epsilon, domain_size);
      break;
    case FrequencyOracleKind::kThe:
      oracle = std::make_unique<TheOracle>(epsilon, domain_size);
      break;
  }
  if (oracle == nullptr) {
    return Status::InvalidArgument("unknown frequency oracle kind");
  }
  return oracle;
}

namespace internal_frequency {

std::vector<double> DebiasSupportCounts(const std::vector<uint64_t>& support,
                                        uint64_t num_reports, double p,
                                        double q) {
  std::vector<double> estimates(support.size(), 0.0);
  if (num_reports == 0) return estimates;
  const double n = static_cast<double>(num_reports);
  const double gap = p - q;
  for (size_t v = 0; v < support.size(); ++v) {
    estimates[v] = (static_cast<double>(support[v]) / n - q) / gap;
  }
  return estimates;
}

double SupportEstimateVariance(double f, uint64_t num_reports, double p,
                               double q) {
  if (num_reports == 0) return 0.0;
  const double mu = f * p + (1.0 - f) * q;
  const double gap = p - q;
  return mu * (1.0 - mu) /
         (static_cast<double>(num_reports) * gap * gap);
}

}  // namespace internal_frequency

}  // namespace ldp
