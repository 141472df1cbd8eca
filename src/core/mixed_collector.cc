#include "core/mixed_collector.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "core/variance.h"
#include "core/wire.h"
#include "frequency/histogram.h"
#include "util/check.h"
#include "util/sampling.h"

namespace ldp {

Result<MixedTupleCollector> MixedTupleCollector::Create(
    std::vector<MixedAttribute> schema, double epsilon,
    MechanismKind numeric_kind, FrequencyOracleKind categorical_kind) {
  if (schema.empty()) {
    return Status::InvalidArgument("schema must have at least one attribute");
  }
  LDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const uint32_t dimension = static_cast<uint32_t>(schema.size());
  const uint32_t k = AttributeSampleCount(epsilon, dimension);
  const double per_attribute_epsilon = epsilon / k;

  std::unique_ptr<ScalarMechanism> scalar;
  LDP_ASSIGN_OR_RETURN(scalar,
                       MakeScalarMechanism(numeric_kind, per_attribute_epsilon));

  // Attributes with equal domain sizes share one oracle instance.
  std::map<uint32_t, std::shared_ptr<const FrequencyOracle>> oracle_cache;
  std::vector<std::shared_ptr<const FrequencyOracle>> oracles(dimension);
  for (uint32_t j = 0; j < dimension; ++j) {
    if (schema[j].type != AttributeType::kCategorical) continue;
    const uint32_t domain = schema[j].domain_size;
    auto it = oracle_cache.find(domain);
    if (it == oracle_cache.end()) {
      std::unique_ptr<FrequencyOracle> oracle;
      LDP_ASSIGN_OR_RETURN(oracle,
                           MakeFrequencyOracle(categorical_kind,
                                               per_attribute_epsilon, domain));
      it = oracle_cache.emplace(domain, std::move(oracle)).first;
    }
    oracles[j] = it->second;
  }
  return MixedTupleCollector(std::move(schema), epsilon, k, numeric_kind,
                             categorical_kind,
                             std::shared_ptr<const ScalarMechanism>(
                                 std::move(scalar)),
                             std::move(oracles));
}

double MixedTupleCollector::numeric_bound() const {
  return static_cast<double>(dimension()) / k_ * scalar_->OutputBound() *
         (1.0 + 1e-9);
}

int MixedTupleCollector::numeric_grid_exponent() const {
  const int e = std::ilogb(numeric_bound());
  return std::ldexp(1.0, e) < numeric_bound() ? e + 1 : e;
}

bool MixedTupleCollector::CompatibleWith(
    const MixedTupleCollector& other) const {
  if (this == &other) return true;
  if (schema_.size() != other.schema_.size() || epsilon_ != other.epsilon_ ||
      k_ != other.k_ || numeric_kind_ != other.numeric_kind_ ||
      categorical_kind_ != other.categorical_kind_) {
    return false;
  }
  for (size_t j = 0; j < schema_.size(); ++j) {
    if (schema_[j].type != other.schema_[j].type) return false;
    if (schema_[j].type == AttributeType::kCategorical &&
        schema_[j].domain_size != other.schema_[j].domain_size) {
      return false;
    }
  }
  return true;
}

namespace {

// An oracle's payload is drawn here, then only its words are appended: room
// for the longest payload at the frame's end would be zero-filled per report,
// O(d) where SUE/OUE draw O(q·d + 1) words. At most 256 KiB per thread.
char* PayloadScratch(size_t words) {
  thread_local std::vector<char> scratch;
  if (scratch.size() < 4 * words) scratch.resize(4 * words);
  return scratch.data();
}

}  // namespace

void MixedTupleCollector::AppendReport(const MixedTuple& tuple, Rng* rng,
                                       std::string* out) const {
  using internal_wire::StoreLittleEndian;
  LDP_CHECK(tuple.size() == schema_.size());
  const double scale = static_cast<double>(dimension()) / k_;
  // On the stack up to kScanMaxPicks, past which the sampler allocates too.
  uint32_t stack_picks[kScanMaxPicks];
  std::vector<uint32_t> heap_picks(k_ > kScanMaxPicks ? k_ : 0);
  uint32_t* sampled = k_ > kScanMaxPicks ? heap_picks.data() : stack_picks;
  SampleWithoutReplacement(dimension(), k_, rng, sampled);
  size_t at = out->size();
  out->resize(at + 2);
  StoreLittleEndian(&(*out)[at], static_cast<uint16_t>(k_));
  for (uint32_t i = 0; i < k_; ++i) {
    const uint32_t attribute = sampled[i];
    const FrequencyOracle* oracle = oracles_[attribute].get();
    // Attribute and kind, then an f64 value or a u16 count and the words.
    if (oracle == nullptr) {
      const double t = tuple[attribute].numeric;
      LDP_DCHECK(t >= -1.0 && t <= 1.0);
      const double value = scale * scalar_->Perturb(t, rng);
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      at = out->size();
      out->resize(at + 13);
      char* entry = &(*out)[at];
      StoreLittleEndian(entry, attribute);
      entry[4] = static_cast<char>(internal_wire::kNumericEntry);
      StoreLittleEndian(entry + 5, bits);
      continue;
    }
    const uint32_t v = tuple[attribute].category;
    LDP_DCHECK(v < schema_[attribute].domain_size);
    LDP_CHECK_MSG(oracle->MaxReportSize() <= kMaxWirePayloadWords,
                  "oracle payloads exceed the wire's u16 count; "
                  "see CheckWireEncodable");
    char* words = PayloadScratch(oracle->MaxReportSize());
    const size_t count = oracle->PerturbInto(v, rng, words);
    at = out->size();
    out->resize(at + 7);
    char* entry = &(*out)[at];
    StoreLittleEndian(entry, attribute);
    entry[4] = static_cast<char>(internal_wire::kCategoricalEntry);
    StoreLittleEndian(entry + 5, static_cast<uint16_t>(count));
    out->append(words, 4 * count);
  }
}

MixedAggregator::MixedAggregator(const MixedTupleCollector* collector)
    : collector_(collector) {
  LDP_CHECK(collector != nullptr);
  to_grid_ = std::ldexp(1.0, 62 - collector_->numeric_grid_exponent());
  const uint32_t d = collector_->dimension();
  attribute_reports_.assign(d, 0);
  numeric_sums_.assign(d, 0);
  supports_.resize(d);
  for (uint32_t j = 0; j < d; ++j) {
    const FrequencyOracle* oracle = collector_->oracle_for(j);
    if (oracle != nullptr) supports_[j].assign(oracle->SupportSize(), 0);
  }
}

void MixedAggregator::FoldValidated(const MixedEntryView* entries,
                                    size_t count) {
  ++num_reports_;
  for (size_t i = 0; i < count; ++i) {
    const MixedEntryView& entry = entries[i];
    ++attribute_reports_[entry.attribute];
    if (entry.oracle == nullptr) {
      // The int64 nearest the scaled value (ties to even, the default
      // rounding mode); |value·to_grid_| <= 2^62, so it always fits.
      numeric_sums_[entry.attribute] +=
          std::llrint(entry.numeric_value * to_grid_);
    } else {
      entry.oracle->Fold(entry.payload, supports_[entry.attribute].data());
    }
  }
}

Result<MixedAggregator> MixedAggregator::FromParts(
    const MixedTupleCollector* collector, uint64_t num_reports,
    std::vector<uint64_t> attribute_reports,
    std::vector<NumericSum> numeric_sums,
    std::vector<std::vector<uint64_t>> supports) {
  LDP_CHECK(collector != nullptr);
  const uint32_t d = collector->dimension();
  if (attribute_reports.size() != d || numeric_sums.size() != d ||
      supports.size() != d) {
    return Status::InvalidArgument(
        "aggregator state vectors must have one entry per attribute");
  }
  for (uint32_t j = 0; j < d; ++j) {
    const FrequencyOracle* oracle = collector->oracle_for(j);
    const size_t expected_support =
        oracle != nullptr ? oracle->SupportSize() : 0;
    if (supports[j].size() != expected_support) {
      return Status::InvalidArgument(
          "support vector size does not match the attribute's domain");
    }
    const uint64_t n_j = attribute_reports[j];
    if (n_j > num_reports) {
      return Status::InvalidArgument(
          "attribute report count exceeds the total report count");
    }
    // Each report moves a sum by at most 2^62 grid units (n_j < 2^64 keeps
    // the bound below 2^126) and a support count by MaxFoldPerReport().
    const NumericSum max_sum =
        oracle != nullptr ? 0 : NumericSum{n_j} << 62;
    const unsigned __int128 max_support =
        oracle != nullptr ? NumericSum{n_j} * oracle->MaxFoldPerReport() : 0;
    if (numeric_sums[j] > max_sum || numeric_sums[j] < -max_sum ||
        std::any_of(supports[j].begin(), supports[j].end(),
                    [&](uint64_t s) { return s > max_support; })) {
      return Status::InvalidArgument(
          "aggregator state exceeds what the attribute's reports add up to");
    }
  }
  MixedAggregator aggregator(collector);
  aggregator.num_reports_ = num_reports;
  aggregator.attribute_reports_ = std::move(attribute_reports);
  aggregator.numeric_sums_ = std::move(numeric_sums);
  aggregator.supports_ = std::move(supports);
  return aggregator;
}

Status MixedAggregator::Merge(const MixedAggregator& other) {
  if (collector_ != other.collector_ &&
      !collector_->CompatibleWith(*other.collector_)) {
    return Status::FailedPrecondition(
        "cannot merge aggregators built from incompatible collectors");
  }
  // Every add is checked before any is made, so a refusal changes nothing.
  auto fits = [](auto a, auto b) {
    decltype(a) sum{};
    return !__builtin_add_overflow(a, b, &sum);
  };
  bool fit = fits(num_reports_, other.num_reports_);
  for (uint32_t j = 0; fit && j < collector_->dimension(); ++j) {
    fit = fits(attribute_reports_[j], other.attribute_reports_[j]) &&
          fits(numeric_sums_[j], other.numeric_sums_[j]);
    for (size_t v = 0; fit && v < supports_[j].size(); ++v) {
      fit = fits(supports_[j][v], other.supports_[j][v]);
    }
  }
  if (!fit) {
    return Status::OutOfRange("merging the aggregates would overflow a count");
  }
  num_reports_ += other.num_reports_;
  for (uint32_t j = 0; j < collector_->dimension(); ++j) {
    attribute_reports_[j] += other.attribute_reports_[j];
    numeric_sums_[j] += other.numeric_sums_[j];
    for (size_t v = 0; v < supports_[j].size(); ++v) {
      supports_[j][v] += other.supports_[j][v];
    }
  }
  return Status::OK();
}

Result<double> MixedAggregator::EstimateMean(uint32_t attribute) const {
  if (attribute >= collector_->dimension()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (collector_->schema()[attribute].type != AttributeType::kNumeric) {
    return Status::InvalidArgument("attribute is not numeric");
  }
  if (num_reports_ == 0) return 0.0;
  // Algorithm 4's estimator: average of the dense (zero-padded) reports.
  // The exact sum rounds once to double; the grid scale is a power of two.
  return static_cast<double>(numeric_sums_[attribute]) / to_grid_ /
         static_cast<double>(num_reports_);
}

Result<std::vector<double>> MixedAggregator::EstimateFrequencies(
    uint32_t attribute) const {
  if (attribute >= collector_->dimension()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (collector_->schema()[attribute].type != AttributeType::kCategorical) {
    return Status::InvalidArgument("attribute is not categorical");
  }
  const FrequencyOracle* oracle = collector_->oracle_for(attribute);
  const uint64_t n_j = attribute_reports_[attribute];
  // The oracle's Estimate debiases relative to the n_j reports that sampled
  // this attribute; the Section IV-C estimator rescales the debiased counts
  // by d/(k·n): f̂ = (d·n_j)/(k·n) · per-reporter estimate.
  std::vector<double> estimates = oracle->Estimate(supports_[attribute], n_j);
  if (num_reports_ == 0) return estimates;
  const double scale = static_cast<double>(collector_->dimension()) *
                       static_cast<double>(n_j) /
                       (static_cast<double>(collector_->k()) *
                        static_cast<double>(num_reports_));
  for (double& f : estimates) f *= scale;
  return estimates;
}

Result<std::vector<double>> MixedAggregator::EstimateFrequenciesProjected(
    uint32_t attribute) const {
  std::vector<double> raw;
  LDP_ASSIGN_OR_RETURN(raw, EstimateFrequencies(attribute));
  return ProjectOntoSimplex(raw);
}

}  // namespace ldp
