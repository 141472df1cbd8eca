// Section IV-C: the extension of Algorithm 4 to tuples mixing numeric and
// categorical attributes — the first LDP collector that handles both under a
// single budget without per-attribute splitting.
//
// Each user samples k = max(1, min(d, ⌊ε/2.5⌋)) of her d attributes. A
// sampled numeric attribute is perturbed with PM/HM at budget ε/k and scaled
// by d/k (exactly as in Algorithm 4); a sampled categorical attribute is
// perturbed with a frequency oracle (OUE by default, the paper's choice) at
// budget ε/k.
//
// A report exists only as wire bytes (core/wire.h): AppendReport perturbs
// straight into them, and the aggregator folds them once MixedFrameDecoder
// has validated them, in process (api::Pipeline::Collect) as over the
// network. The aggregator estimates
//   - the mean of numeric attribute j as (1/n) Σ_i reported_scaled_value, and
//   - the frequency of value v of categorical attribute j as
//     (d/(k·n)) · (debiased support of v over the reports that sampled j),
// both unbiased (Lemma 4 and the Section IV-C estimator).
//
// Every accumulated quantity is an integer — u64 supports, and each numeric
// value rounded to its nearest multiple of 2^(E−62) in an __int128 sum — so
// folds and merges in any order give the same bits.

#ifndef LDP_CORE_MIXED_COLLECTOR_H_
#define LDP_CORE_MIXED_COLLECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "frequency/frequency_oracle.h"
#include "util/random.h"
#include "util/result.h"

namespace ldp {

/// Type tag of one attribute in a mixed tuple.
enum class AttributeType {
  kNumeric,      ///< Value in [-1, 1].
  kCategorical,  ///< Value in {0, ..., domain_size-1}.
};

/// Describes one attribute of the tuples being collected.
struct MixedAttribute {
  AttributeType type = AttributeType::kNumeric;
  /// Number of distinct values; meaningful for categorical attributes only.
  uint32_t domain_size = 0;

  static MixedAttribute Numeric() { return {AttributeType::kNumeric, 0}; }
  static MixedAttribute Categorical(uint32_t domain_size) {
    return {AttributeType::kCategorical, domain_size};
  }
};

/// One attribute value of a mixed tuple: numeric attributes read `numeric`,
/// categorical attributes read `category`.
struct AttributeValue {
  double numeric = 0.0;
  uint32_t category = 0;

  static AttributeValue Numeric(double v) { return {v, 0}; }
  static AttributeValue Categorical(uint32_t v) { return {0.0, v}; }
};

/// A full user tuple: one AttributeValue per schema attribute.
using MixedTuple = std::vector<AttributeValue>;

/// One entry of a validated wire frame, viewed where it lies in the frame's
/// bytes: the wire decoder (core/wire.h MixedFrameDecoder) records one per
/// entry while it validates, and MixedAggregator::FoldValidated folds a
/// report from them. Only valid while the frame's bytes are.
struct MixedEntryView {
  uint32_t attribute = 0;
  /// The attribute's oracle; null for a numeric entry.
  const FrequencyOracle* oracle = nullptr;
  /// d/k-scaled noisy value; read only for a numeric entry.
  double numeric_value = 0.0;
  /// Oracle payload words inside the frame; read only for a categorical
  /// entry.
  FrequencyOracle::ReportView payload;
};

/// The client half of the Section IV-C protocol.
///
/// Thread-safety: immutable after construction; share across threads with one
/// Rng per thread.
class MixedTupleCollector {
 public:
  /// Builds a collector for the given schema and total budget ε.
  /// `numeric_kind` is the scalar mechanism for numeric attributes (HM in the
  /// paper's experiments); `categorical_kind` is the frequency oracle for
  /// categorical attributes (OUE in the paper). Fails on an empty schema, a
  /// bad budget, or a categorical attribute with fewer than 2 values.
  static Result<MixedTupleCollector> Create(
      std::vector<MixedAttribute> schema, double epsilon,
      MechanismKind numeric_kind = MechanismKind::kHybrid,
      FrequencyOracleKind categorical_kind = FrequencyOracleKind::kOue);

  /// Perturbs one user tuple (size d, numeric coordinates in [-1, 1],
  /// categorical coordinates within their domains) into a k-entry report,
  /// appending its wire bytes (core/wire.h) to `out`. Draws the sample
  /// (SampleWithoutReplacement), then each entry's perturbation in sample
  /// order. Allocates nothing once `out` (and a per-thread payload scratch)
  /// have room. Aborts on an oracle CheckWireEncodable refuses.
  void AppendReport(const MixedTuple& tuple, Rng* rng, std::string* out) const;

  double epsilon() const { return epsilon_; }
  uint32_t dimension() const { return static_cast<uint32_t>(schema_.size()); }

  /// The number of attributes each user reports (Eq. 12).
  uint32_t k() const { return k_; }

  /// The scalar-mechanism kind used for numeric attributes.
  MechanismKind numeric_kind() const { return numeric_kind_; }

  /// The frequency-oracle kind used for categorical attributes.
  FrequencyOracleKind categorical_kind() const { return categorical_kind_; }

  /// True when `other` describes the same protocol: equal schema (dimension,
  /// per-attribute type and domain), budget, sample count and mechanism /
  /// oracle kinds. Reports and aggregator state are interchangeable between
  /// compatible collectors, which is what lets shards produced by separate
  /// processes be merged.
  bool CompatibleWith(const MixedTupleCollector& other) const;

  /// The per-attribute budget ε/k.
  double per_attribute_epsilon() const { return per_attribute_epsilon_; }

  /// The collection schema.
  const std::vector<MixedAttribute>& schema() const { return schema_; }

  /// The scalar mechanism shared by all numeric attributes.
  const ScalarMechanism& scalar_mechanism() const { return *scalar_; }

  /// The largest |value| the wire decoder accepts in a numeric entry: the
  /// mechanism's output bound scaled by d/k, with 1e-9 relative slack.
  double numeric_bound() const;

  /// E, the least exponent with 2^E >= numeric_bound(): numeric sums fold
  /// on the grid of multiples of 2^(E−62), where every value fits an int64.
  int numeric_grid_exponent() const;

  /// The oracle used for categorical attribute `attribute`; null for numeric
  /// attributes.
  const FrequencyOracle* oracle_for(uint32_t attribute) const {
    return oracles_[attribute].get();
  }

 private:
  MixedTupleCollector(
      std::vector<MixedAttribute> schema, double epsilon, uint32_t k,
      MechanismKind numeric_kind, FrequencyOracleKind categorical_kind,
      std::shared_ptr<const ScalarMechanism> scalar,
      std::vector<std::shared_ptr<const FrequencyOracle>> oracles)
      : schema_(std::move(schema)),
        epsilon_(epsilon),
        k_(k),
        per_attribute_epsilon_(epsilon / k),
        numeric_kind_(numeric_kind),
        categorical_kind_(categorical_kind),
        scalar_(std::move(scalar)),
        oracles_(std::move(oracles)) {}

  std::vector<MixedAttribute> schema_;
  double epsilon_;
  uint32_t k_;
  double per_attribute_epsilon_;
  MechanismKind numeric_kind_;
  FrequencyOracleKind categorical_kind_;
  std::shared_ptr<const ScalarMechanism> scalar_;
  // One oracle per attribute (null at numeric positions); oracles with equal
  // domain sizes are shared.
  std::vector<std::shared_ptr<const FrequencyOracle>> oracles_;
};

/// A numeric attribute's exact sum, in units of 2^(E−62) (see
/// MixedTupleCollector::numeric_grid_exponent).
using NumericSum = __int128;

/// The server half: folds validated reports and produces estimates.
class MixedAggregator {
 public:
  /// `collector` must outlive the aggregator (it borrows the schema and the
  /// oracles to decode reports).
  explicit MixedAggregator(const MixedTupleCollector* collector);

  /// Rebuilds an aggregator from previously captured state (the inverse of
  /// the num_reports / attribute_report_counts / numeric_sums / supports
  /// accessors, used by the snapshot codec). Validates every vector length
  /// against `collector`'s schema, and refuses state no run of reports can
  /// reach: an attribute count above num_reports, a sum of magnitude above
  /// n_j·2^62 or at a categorical position, a support count above
  /// n_j·MaxFoldPerReport(), where n_j is the attribute's report count.
  static Result<MixedAggregator> FromParts(
      const MixedTupleCollector* collector, uint64_t num_reports,
      std::vector<uint64_t> attribute_reports,
      std::vector<NumericSum> numeric_sums,
      std::vector<std::vector<uint64_t>> supports);

  /// Folds in one user's report from the `count` entry views of a wire
  /// frame that MixedFrameDecoder validated as a whole, with nothing
  /// materialized.
  void FoldValidated(const MixedEntryView* entries, size_t count);

  /// Adds another aggregator's state. The two aggregators must be built
  /// from the same collector or from CompatibleWith collectors (equal
  /// schema, budget, sample count and mechanism/oracle kinds); returns
  /// FailedPrecondition otherwise, and OutOfRange when an add would
  /// overflow. Either refusal leaves this aggregator untouched.
  Status Merge(const MixedAggregator& other);

  /// Unbiased mean estimate of numeric attribute `attribute`; fails if the
  /// attribute is categorical.
  Result<double> EstimateMean(uint32_t attribute) const;

  /// Unbiased frequency estimates for every value of categorical attribute
  /// `attribute`; fails if the attribute is numeric. Entries may fall outside
  /// [0, 1]; see EstimateFrequenciesProjected for consistent estimates.
  Result<std::vector<double>> EstimateFrequencies(uint32_t attribute) const;

  /// EstimateFrequencies post-processed by Euclidean projection onto the
  /// probability simplex: non-negative, sums to 1 (slightly biased, usually
  /// lower error on skewed histograms).
  Result<std::vector<double>> EstimateFrequenciesProjected(
      uint32_t attribute) const;

  /// Number of reports accumulated.
  uint64_t num_reports() const { return num_reports_; }

  /// Raw accumulated state, exposed so aggregator snapshots can be
  /// serialised for cross-process shard merging (stream/snapshot.h).
  const std::vector<uint64_t>& attribute_report_counts() const {
    return attribute_reports_;
  }
  const std::vector<NumericSum>& numeric_sums() const { return numeric_sums_; }
  const std::vector<std::vector<uint64_t>>& supports() const {
    return supports_;
  }

  /// The collector this aggregator was built from.
  const MixedTupleCollector* collector() const { return collector_; }

 private:
  const MixedTupleCollector* collector_;
  double to_grid_;  // 2^(62−E): a value times this is its grid position
  uint64_t num_reports_ = 0;
  std::vector<uint64_t> attribute_reports_;  // reports sampling each attr
  std::vector<NumericSum> numeric_sums_;     // Σ values, in grid units
  std::vector<std::vector<uint64_t>> supports_;  // per-categorical supports
};

}  // namespace ldp

#endif  // LDP_CORE_MIXED_COLLECTOR_H_
