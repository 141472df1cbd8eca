// Frequency oracles: ε-LDP primitives for a single categorical attribute.
//
// A frequency oracle lets each user submit a randomized report about her
// value v ∈ {0, ..., k-1} such that the aggregator can estimate the frequency
// of every value over the population, while each individual report satisfies
// ε-LDP. This is the categorical counterpart of core/mechanism.h and the
// plug-in point of the paper's Section IV-C: the mixed-attribute collector
// routes each sampled categorical attribute through an oracle at budget ε/k.
//
// The protocol is split into the client half (PerturbInto) and the server
// half (Validate + Fold + Estimate) so that simulation harnesses can route
// reports through arbitrary collection topologies. All four oracles from the
// literature are provided: GRR (generalized randomized response), SUE (basic
// RAPPOR), OUE (optimized unary encoding — the paper's choice), and OLH
// (optimized local hashing).

#ifndef LDP_FREQUENCY_FREQUENCY_ORACLE_H_
#define LDP_FREQUENCY_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/little_endian.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp {

/// Identifies a frequency oracle; used by factories and configs.
enum class FrequencyOracleKind {
  kGrr,  ///< Generalized randomized response (k-RR).
  kSue,  ///< Symmetric unary encoding (basic one-round RAPPOR).
  kOue,  ///< Optimized unary encoding (Wang et al., USENIX Sec. 2017).
  kOlh,  ///< Optimized local hashing (Wang et al., USENIX Sec. 2017).
  kHe,   ///< Histogram encoding: noisy one-hot vector (summation variant).
  kThe,  ///< Histogram encoding with thresholding.
};

/// Human-readable oracle name ("GRR", "SUE", "OUE", "OLH", "HE", "THE").
const char* FrequencyOracleKindToString(FrequencyOracleKind kind);

/// An ε-LDP randomizer for one categorical value with domain {0, ..., k-1}.
///
/// Thread-safety: instances are immutable after construction; PerturbInto
/// only mutates the caller-supplied Rng and buffer, so one instance may be
/// shared across threads as long as each thread owns its Rng.
class FrequencyOracle {
 public:
  /// A single user's privatized report. The encoding is oracle-specific
  /// (GRR: one perturbed value; SUE/OUE: indices of set bits; OLH: packed
  /// 64-bit hash seed plus one hashed value) and only meaningful to the
  /// oracle that produced it.
  using Report = std::vector<uint32_t>;

  virtual ~FrequencyOracle() = default;

  /// Writes the privatized report for true value `value` (< domain_size) as
  /// little-endian 32-bit words at `words`, which has room for
  /// MaxReportSize() of them, and returns how many it wrote: straight into
  /// a wire frame (MixedTupleCollector::AppendReport).
  virtual size_t PerturbInto(uint32_t value, Rng* rng, char* words) const = 0;

  /// PerturbInto, materialized: the same draws, as host-order words.
  Report Perturb(uint32_t value, Rng* rng) const;

  /// A read-only view of one report's payload where it lies: `size` 32-bit
  /// words at `words`, little-endian and possibly unaligned — exactly how a
  /// payload sits inside a wire frame (core/wire.h), so the server validates
  /// and folds a report straight from the bytes it received.
  class ReportView {
   public:
    ReportView() = default;
    ReportView(const char* words, size_t size) : words_(words), size_(size) {}

    size_t size() const { return size_; }
    uint32_t operator[](size_t i) const {
      return internal_wire::LoadLittleEndian<uint32_t>(words_ + 4 * i);
    }

   private:
    const char* words_ = nullptr;
    size_t size_ = 0;
  };

  /// Checks that `report` is structurally valid for this oracle — the shape
  /// and value ranges Perturb can actually emit — so that Fold cannot index
  /// out of bounds or double-count. Returns nullptr for a valid report and
  /// the reason (a static string) otherwise, so accepting a report builds
  /// no Status. This is the server-side guard for reports arriving over the
  /// wire (core/wire.h runs it during decode); it does not (and cannot)
  /// detect a lying client whose report is merely improbable.
  virtual const char* Validate(ReportView report) const = 0;

  /// Folds one report that passed Validate into per-value support counts:
  /// `support` has domain_size() entries, and entry v counts reports
  /// consistent with value v.
  virtual void Fold(ReportView report, double* support) const = 0;

  /// Fold over a materialized report (Perturb's output is always valid).
  void Accumulate(const Report& report, std::vector<double>* support) const;

  /// Turns support counts over `num_reports` reports into unbiased frequency
  /// estimates, one per domain value. Estimates may fall outside [0, 1];
  /// see FrequencyEstimator for clamping / simplex projection.
  virtual std::vector<double> Estimate(const std::vector<double>& support,
                                       uint64_t num_reports) const = 0;

  /// Variance of a single value's frequency estimate when its true frequency
  /// is `f` and `num_reports` reports were collected.
  virtual double EstimateVariance(double f, uint64_t num_reports) const = 0;

  /// Upper bound on the payload length Validate can accept (and Perturb can
  /// emit). The wire decoder rejects a longer payload count before reading a
  /// single element, so a hostile length costs no parse work. Defaults to
  /// the domain size (unary and histogram encodings); constant-size oracles
  /// override it.
  virtual size_t MaxReportSize() const { return domain_size_; }

  /// Short oracle name for reports.
  virtual const char* name() const = 0;

  /// The privacy budget this instance was built with.
  double epsilon() const { return epsilon_; }

  /// The categorical domain size k.
  uint32_t domain_size() const { return domain_size_; }

 protected:
  FrequencyOracle(double epsilon, uint32_t domain_size)
      : epsilon_(epsilon), domain_size_(domain_size) {}

 private:
  double epsilon_;
  uint32_t domain_size_;
};

/// Creates an oracle of the given kind. Returns InvalidArgument for a
/// non-positive/non-finite budget or a domain with fewer than 2 values.
Result<std::unique_ptr<FrequencyOracle>> MakeFrequencyOracle(
    FrequencyOracleKind kind, double epsilon, uint32_t domain_size);

namespace internal_frequency {

/// Writes report word `index` at `words` (PerturbInto's output layout).
inline void PutWord(char* words, size_t index, uint32_t word) {
  internal_wire::StoreLittleEndian<uint32_t>(words + 4 * index, word);
}

/// The rejection reasons of ValidateSortedIndices, worded per oracle.
struct SortedIndexErrors {
  const char* too_long;    ///< more indices than the domain has values
  const char* outside;     ///< an index at or past the domain size
  const char* unsorted;    ///< indices not strictly increasing
};

/// The validator shared by the oracles whose report is the strictly
/// increasing indices of its set bits (SUE/OUE, THE): nullptr when valid.
inline const char* ValidateSortedIndices(FrequencyOracle::ReportView report,
                                         uint32_t domain_size,
                                         const SortedIndexErrors& errors) {
  if (report.size() > domain_size) return errors.too_long;
  for (size_t i = 0; i < report.size(); ++i) {
    const uint32_t index = report[i];
    if (index >= domain_size) return errors.outside;
    if (i > 0 && index <= report[i - 1]) return errors.unsorted;
  }
  return nullptr;
}

/// Their fold: one support count per reported index.
inline void FoldIndices(FrequencyOracle::ReportView report, double* support) {
  for (size_t i = 0; i < report.size(); ++i) support[report[i]] += 1.0;
}

/// Debiases per-value support counts for an oracle where a report supports
/// the user's true value with probability p and any other fixed value with
/// probability q: f̂_v = (support_v / n - q) / (p - q).
std::vector<double> DebiasSupportCounts(const std::vector<double>& support,
                                        uint64_t num_reports, double p,
                                        double q);

/// Variance of the debiased estimator above at true frequency f:
/// μ(1-μ) / (n (p-q)²) with μ = f p + (1-f) q.
double SupportEstimateVariance(double f, uint64_t num_reports, double p,
                               double q);

}  // namespace internal_frequency

}  // namespace ldp

#endif  // LDP_FREQUENCY_FREQUENCY_ORACLE_H_
