// The library's session facade: one config-driven entry point for every
// collection path in the paper and every deployment shape in the repo.
//
// A PipelineConfig names the full protocol — attribute schema, per-epoch
// budget ε, scalar mechanism and frequency oracle kinds, an optional
// split-budget baseline strategy, and the epoch plan — and a Pipeline built
// from it hands out the three ways to run that protocol:
//
//   - Pipeline::Collect     in-process simulation over a Dataset, the
//                           golden run every sharded deployment reproduces
//                           bit for bit however it is sharded (it folds the
//                           very bytes a client would send);
//   - Pipeline::NewClient   a ClientSession that perturbs rows straight into
//                           wire frames of the framed report-stream format;
//   - Pipeline::NewServer   a ServerSession that owns shards, epochs and a
//                           PrivacyAccountant, and exposes Feed / Merge /
//                           Snapshot / Estimate (api/server_session.h).
//
// Every schema travels as Section IV-C mixed reports. On an all-numeric
// schema the mixed collector is the paper's Algorithm 4 — same k, same
// sampling, same PM/HM at ε/k, same d/k scaling — so one report format
// serves both (tests/mixed_collector_test.cc pins the equivalence).

#ifndef LDP_API_PIPELINE_H_
#define LDP_API_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "core/mixed_collector.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "frequency/frequency_oracle.h"
#include "stream/report_stream.h"
#include "util/random.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace ldp::api {

namespace internal_api {
struct PipelineState;  // shared protocol objects behind Pipeline + sessions
}  // namespace internal_api

/// Ground truth and LDP estimates from one in-process collection run.
struct CollectionOutput {
  /// Schema indices of the numeric columns, in schema order.
  std::vector<uint32_t> numeric_columns;
  /// Schema indices of the categorical columns, in schema order.
  std::vector<uint32_t> categorical_columns;
  /// Exact and estimated means, parallel to numeric_columns.
  std::vector<double> true_means;
  std::vector<double> estimated_means;
  /// Exact and estimated value frequencies, parallel to categorical_columns.
  std::vector<std::vector<double>> true_frequencies;
  std::vector<std::vector<double>> estimated_frequencies;
};

/// How a split-budget baseline pipeline handles the numeric attribute group.
enum class NumericStrategy {
  kLaplaceSplit,    ///< Laplace mechanism per attribute at ε/d each.
  kScdfSplit,       ///< SCDF per attribute at ε/d each.
  kStaircaseSplit,  ///< Staircase per attribute at ε/d each.
  kDuchiMulti,      ///< Duchi et al.'s Algorithm 3 at the group budget.
};

/// Human-readable strategy name ("Laplace", "SCDF", "Staircase", "Duchi").
const char* NumericStrategyToString(NumericStrategy strategy);

/// The per-user generator used by every collection pipeline: user `row`
/// under master seed `seed` always draws from the same stream, whether the
/// simulation runs single-threaded, pooled, or sharded across processes
/// (ldp_report derives client-side randomness the same way, which is what
/// makes sharded ingestion reproduce an in-process run exactly).
Rng UserRng(uint64_t seed, uint64_t row);

/// Builds the collection-attribute schema for a tabular data schema (numeric
/// columns must be normalised to [-1, 1] before collecting).
Result<std::vector<MixedAttribute>> AttributesFromSchema(
    const data::Schema& schema);

/// Normalises one streamed CSV row (the data::CsvRowReader output vectors)
/// into a canonical tuple: each numeric cell is mapped from its schema
/// [lo, hi] to the mechanisms' [-1, 1] with the same arithmetic as
/// data::NormalizeNumeric — the bit-exact reproduction contract between the
/// streaming tools and the materializing pipeline depends on this being the
/// one shared implementation. `tuple` must be sized to the schema's column
/// count.
void RowToTuple(const data::Schema& schema,
                const std::vector<double>& numeric_row,
                const std::vector<uint32_t>& category_row, MixedTuple* tuple);

/// The multi-round collection plan a ServerSession enforces.
struct EpochPlan {
  /// Planned collection rounds; each epoch spends the config's ε per user.
  uint32_t epochs = 1;
  /// Per-user lifetime ε cap across epochs (sequential composition). 0
  /// means "exactly the plan": epochs × ε.
  double lifetime_budget = 0.0;
};

/// Everything that defines one collection deployment.
struct PipelineConfig {
  /// The attribute schema of the tuples being collected.
  std::vector<MixedAttribute> attributes;
  /// The per-epoch privacy budget every user enjoys.
  double epsilon = 1.0;
  /// Scalar mechanism for numeric attributes (HM in the paper).
  MechanismKind mechanism = MechanismKind::kHybrid;
  /// Frequency oracle for categorical attributes (OUE in the paper).
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  /// When set, Collect runs the split-budget baseline of Section VI-A
  /// instead of the paper's sampled collector. Baseline configs are
  /// simulation-only: they have no wire protocol, so NewClient / NewServer
  /// fail.
  std::optional<NumericStrategy> baseline;
  /// Multi-epoch plan enforced by ServerSession's PrivacyAccountant.
  EpochPlan plan;

  /// Convenience: a config whose attributes mirror `schema`'s columns.
  static Result<PipelineConfig> FromSchema(const data::Schema& schema,
                                           double epsilon);
};

/// Per-epoch estimates a ServerSession serves (the server-side counterpart
/// of CollectionOutput, without ground truth).
struct PipelineEstimates {
  /// Attribute indices, in schema order.
  std::vector<uint32_t> numeric_attributes;
  std::vector<uint32_t> categorical_attributes;
  /// Estimated means, parallel to numeric_attributes.
  std::vector<double> means;
  /// Estimated frequencies, parallel to categorical_attributes.
  std::vector<std::vector<double>> frequencies;
  /// Reports the estimates are computed over.
  uint64_t num_reports = 0;
};

/// The client half of a pipeline: perturbs one user's row on her device and
/// encodes nothing but the privatized report. Copyable and cheap; share one
/// per thread with one Rng per thread.
class ClientSession {
 public:
  /// The stream header every shard written by this client must start with.
  stream::StreamHeader header() const;

  /// The serialized header bytes (convenience for callers framing by hand).
  std::string EncodeHeader() const;

  /// The encode path: perturbs one full row and appends it to `frames` as
  /// one length-prefixed frame, in place at its end. Into a buffer the
  /// caller reuses, a steady-state report allocates nothing. Numeric
  /// coordinates must be in [-1, 1], categorical ones within their domains.
  /// Fails on a row of the wrong width, or a report over
  /// stream::kMaxFrameBytes, leaving `frames` as it was.
  Status AppendFrame(const MixedTuple& row, Rng* rng,
                     std::string* frames) const;

  /// AppendFrame's payload (no length prefix; pair with stream::AppendFrame),
  /// in a string of its own. Fails as AppendFrame does.
  Result<std::string> EncodeReport(const MixedTuple& row, Rng* rng) const;

  /// The number of attributes each report carries (Eq. 12).
  uint32_t k() const;

  uint32_t dimension() const;

 private:
  friend class Pipeline;
  explicit ClientSession(
      std::shared_ptr<const internal_api::PipelineState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const internal_api::PipelineState> state_;
};

class ServerSession;
struct ServerSessionOptions;

/// The session facade. Copyable (copies share the immutable protocol
/// objects); all methods are const and thread-safe.
class Pipeline {
 public:
  /// Validates `config` and builds the protocol objects. Fails on an empty
  /// schema, a bad budget, a categorical attribute with fewer than 2 values,
  /// or a zero-epoch plan.
  static Result<Pipeline> Create(PipelineConfig config);

  /// Runs the configured collection in process over `dataset`, whose numeric
  /// columns must already be normalised to [-1, 1] (see
  /// data::NormalizeNumeric) and whose column types must match the config's
  /// attributes. Deterministic in `seed`; `pool` optionally shards users
  /// across threads without changing the results (except a baseline's
  /// numeric means, which are double sums). The proposed collection folds
  /// the frames a client would send, so it refuses what NewClient refuses:
  /// an oracle whose payloads a mixed frame cannot count (InvalidArgument).
  Result<CollectionOutput> Collect(const data::Dataset& dataset, uint64_t seed,
                                   ThreadPool* pool = nullptr) const;

  /// Builds a client session. Fails for baseline configs (no wire protocol),
  /// and with InvalidArgument when an attribute's oracle can emit more
  /// payload values than a mixed frame carries (core/wire.h
  /// CheckWireEncodable).
  Result<ClientSession> NewClient() const;

  /// Builds a server session owning its own epoch state and accountant.
  /// Fails for baseline configs, for a schema NewClient refuses, or when the
  /// lifetime budget cannot afford the first epoch. Callers must include
  /// api/server_session.h (it completes the ServerSession type these
  /// signatures name).
  Result<ServerSession> NewServer() const;
  Result<ServerSession> NewServer(ServerSessionOptions options) const;

  /// The validated configuration.
  const PipelineConfig& config() const;

  /// The stream header sessions of this pipeline exchange.
  const stream::StreamHeader& header() const;

  double epsilon() const;
  uint32_t dimension() const;

  /// The number of attributes each user reports (Eq. 12).
  uint32_t k() const;

  /// The Section IV-C collector behind Collect and every session.
  const MixedTupleCollector& mixed_collector() const;

 private:
  explicit Pipeline(std::shared_ptr<const internal_api::PipelineState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const internal_api::PipelineState> state_;
};

namespace internal_api {

/// The immutable protocol objects one Pipeline and all its sessions share.
/// Internal: reach the contents through the Pipeline accessors.
struct PipelineState {
  PipelineConfig config;
  /// Always engaged once Create succeeds.
  std::optional<MixedTupleCollector> collector;
  stream::StreamHeader header;
  /// The resolved per-user lifetime budget (plan.lifetime_budget, or
  /// epochs × ε when unset).
  double lifetime_budget = 0.0;
};

}  // namespace internal_api

}  // namespace ldp::api

#endif  // LDP_API_PIPELINE_H_
