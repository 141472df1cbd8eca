#include "api/pipeline.h"

#include <cmath>
#include <mutex>
#include <utility>

#include "aggregate/estimators.h"
#include "api/server_session.h"
#include "baselines/duchi_multi_dim.h"
#include "core/wire.h"
#include "data/encode.h"
#include "util/check.h"

namespace ldp::api {

// Every simulated user gets her own generator derived from (seed, row), so
// results are identical whether or not a thread pool is used.
Rng UserRng(uint64_t seed, uint64_t row) {
  return Rng(seed ^ ((row + 1) * 0x9e3779b97f4a7c15ULL));
}

namespace {

using internal_api::PipelineState;

Status ValidateNormalized(const data::Schema& schema) {
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    const data::ColumnSpec& spec = schema.column(col);
    if (spec.type == data::ColumnType::kNumeric &&
        (spec.lo != -1.0 || spec.hi != 1.0)) {
      return Status::FailedPrecondition(
          "numeric column '" + spec.name +
          "' is not normalised to [-1, 1]; apply data::NormalizeNumeric "
          "first");
    }
  }
  return Status::OK();
}

// Fills the column index lists and the exact means/frequencies.
Status FillGroundTruth(const data::Dataset& dataset, CollectionOutput* out) {
  const data::Schema& schema = dataset.schema();
  out->numeric_columns = schema.NumericColumnIndices();
  out->categorical_columns = schema.CategoricalColumnIndices();
  for (const uint32_t col : out->numeric_columns) {
    double mean = 0.0;
    LDP_ASSIGN_OR_RETURN(mean, dataset.ColumnMean(col));
    out->true_means.push_back(mean);
  }
  for (const uint32_t col : out->categorical_columns) {
    std::vector<double> freqs;
    LDP_ASSIGN_OR_RETURN(freqs, dataset.ColumnFrequencies(col));
    out->true_frequencies.push_back(std::move(freqs));
  }
  return Status::OK();
}

Status ValidateDatasetMatches(const data::Dataset& dataset,
                              const std::vector<MixedAttribute>& attributes) {
  std::vector<MixedAttribute> from_data;
  LDP_ASSIGN_OR_RETURN(from_data, AttributesFromSchema(dataset.schema()));
  bool matches = from_data.size() == attributes.size();
  for (size_t j = 0; matches && j < attributes.size(); ++j) {
    matches = from_data[j].type == attributes[j].type &&
              (attributes[j].type != AttributeType::kCategorical ||
               from_data[j].domain_size == attributes[j].domain_size);
  }
  if (!matches) {
    return Status::InvalidArgument(
        "dataset columns do not match the pipeline's attribute schema");
  }
  return Status::OK();
}

// The paper's proposed pipeline (Algorithm 4 + Section IV-C) over the
// pipeline's collector, folding the bytes a client would send as the server
// folds them. Each chunk folds into its own aggregator and adds it to the
// total when done; the sums are exact, so the result is the same for every
// pool size and schedule, and equals any sharded run over the same rows.
Result<CollectionOutput> RunProposed(const MixedTupleCollector& collector,
                                     const data::Dataset& dataset,
                                     uint64_t seed, ThreadPool* pool) {
  CollectionOutput out;
  LDP_RETURN_IF_ERROR(FillGroundTruth(dataset, &out));

  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  MixedAggregator total(&collector);
  std::mutex total_mutex;
  // A refused row stops its chunk; the lowest chunk's refusal is the
  // first in row order, whatever the schedule.
  std::vector<Status> refusals(ParallelForChunkCount(pool, dataset.num_rows()));
  ParallelFor(pool, dataset.num_rows(),
              [&](unsigned chunk, uint64_t begin, uint64_t end) {
                MixedAggregator local(&collector);
                MixedFrameDecoder decoder(&collector);
                std::string report;
                MixedTuple tuple(d);
                for (uint64_t row = begin; row < end; ++row) {
                  for (uint32_t col = 0; col < d; ++col) {
                    if (schema.column(col).type == data::ColumnType::kNumeric) {
                      tuple[col].numeric = dataset.numeric(row, col);
                    } else {
                      tuple[col].category = dataset.category(row, col);
                    }
                  }
                  Rng rng = UserRng(seed, row);
                  report.clear();
                  const Status appended =
                      collector.AppendReport(tuple, &rng, &report);
                  if (!appended.ok()) {
                    refusals[chunk] = Status(
                        appended.code(),
                        "row " + std::to_string(row) + ", " +
                            appended.message());
                    return;
                  }
                  const char* rejected =
                      decoder.DecodeInto(report.data(), report.size(), &local);
                  LDP_CHECK_MSG(rejected == nullptr, rejected);
                }
                std::lock_guard<std::mutex> lock(total_mutex);
                LDP_CHECK(total.Merge(local).ok());
              });
  for (const Status& refusal : refusals) LDP_RETURN_IF_ERROR(refusal);

  for (const uint32_t col : out.numeric_columns) {
    double mean = 0.0;
    LDP_ASSIGN_OR_RETURN(mean, total.EstimateMean(col));
    out.estimated_means.push_back(mean);
  }
  for (const uint32_t col : out.categorical_columns) {
    std::vector<double> freqs;
    LDP_ASSIGN_OR_RETURN(freqs, total.EstimateFrequencies(col));
    out.estimated_frequencies.push_back(std::move(freqs));
  }
  return out;
}

// The split-budget baseline of Section VI-A: dn·ε/d to the numeric group
// (Duchi's Algorithm 3 or per-attribute scalar mechanisms at ε/d each),
// dc·ε/d to the categorical group (one oracle per attribute at ε/d each).
Result<CollectionOutput> RunBaseline(const data::Dataset& dataset,
                                     double epsilon, uint64_t seed,
                                     NumericStrategy strategy,
                                     FrequencyOracleKind categorical_kind,
                                     ThreadPool* pool) {
  CollectionOutput out;
  LDP_RETURN_IF_ERROR(FillGroundTruth(dataset, &out));

  const uint32_t dn = static_cast<uint32_t>(out.numeric_columns.size());
  const uint32_t dc = static_cast<uint32_t>(out.categorical_columns.size());
  const uint32_t d = dn + dc;
  const double per_attribute_epsilon = epsilon / d;
  const double numeric_group_epsilon = epsilon * dn / d;
  const uint64_t n = dataset.num_rows();

  // Numeric group machinery.
  std::unique_ptr<ScalarMechanism> scalar;
  std::unique_ptr<DuchiMultiDimMechanism> duchi;
  if (dn > 0) {
    if (strategy == NumericStrategy::kDuchiMulti) {
      duchi = std::make_unique<DuchiMultiDimMechanism>(numeric_group_epsilon,
                                                       dn);
    } else {
      MechanismKind kind = MechanismKind::kLaplace;
      if (strategy == NumericStrategy::kScdfSplit) kind = MechanismKind::kScdf;
      if (strategy == NumericStrategy::kStaircaseSplit) {
        kind = MechanismKind::kStaircase;
      }
      LDP_ASSIGN_OR_RETURN(scalar,
                           MakeScalarMechanism(kind, per_attribute_epsilon));
    }
  }

  // Categorical group machinery: one oracle per categorical column.
  std::vector<std::unique_ptr<FrequencyOracle>> oracles;
  for (const uint32_t col : out.categorical_columns) {
    std::unique_ptr<FrequencyOracle> oracle;
    LDP_ASSIGN_OR_RETURN(
        oracle, MakeFrequencyOracle(categorical_kind, per_attribute_epsilon,
                                    dataset.schema().column(col).domain_size));
    oracles.push_back(std::move(oracle));
  }

  std::vector<std::vector<uint64_t>> no_supports;
  for (const std::unique_ptr<FrequencyOracle>& oracle : oracles) {
    no_supports.emplace_back(oracle->SupportSize(), 0);
  }
  // Per-chunk accumulators reduced in chunk order after the parallel region.
  // The support counts are exact; the numeric means are double sums
  // (Laplace outputs are unbounded, so no exact grid holds them), which
  // makes the result bit-deterministic for a fixed chunk count.
  const uint64_t num_chunks = ParallelForChunkCount(pool, n);
  std::vector<aggregate::VectorMeanEstimator> chunk_means(
      num_chunks, aggregate::VectorMeanEstimator(dn));
  std::vector<std::vector<std::vector<uint64_t>>> chunk_supports(
      num_chunks, no_supports);
  ParallelFor(pool, n, [&](unsigned chunk, uint64_t begin, uint64_t end) {
    aggregate::VectorMeanEstimator& local_means = chunk_means[chunk];
    std::vector<std::vector<uint64_t>>& local_supports = chunk_supports[chunk];
    std::vector<double> numeric_tuple(dn, 0.0);
    std::vector<double> dense(dn, 0.0);
    for (uint64_t row = begin; row < end; ++row) {
      Rng rng = UserRng(seed, row);
      if (dn > 0) {
        for (uint32_t j = 0; j < dn; ++j) {
          numeric_tuple[j] = dataset.numeric(row, out.numeric_columns[j]);
        }
        if (duchi != nullptr) {
          dense = duchi->Perturb(numeric_tuple, &rng);
        } else {
          for (uint32_t j = 0; j < dn; ++j) {
            dense[j] = scalar->Perturb(numeric_tuple[j], &rng);
          }
        }
        local_means.Add(dense);
      }
      for (uint32_t c = 0; c < dc; ++c) {
        const uint32_t value = dataset.category(row, out.categorical_columns[c]);
        oracles[c]->Accumulate(oracles[c]->Perturb(value, &rng),
                               &local_supports[c]);
      }
    }
  });
  aggregate::VectorMeanEstimator total_means(dn);
  std::vector<std::vector<uint64_t>> total_supports = no_supports;
  for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    total_means.Merge(chunk_means[chunk]);
    for (uint32_t c = 0; c < dc; ++c) {
      for (size_t v = 0; v < total_supports[c].size(); ++v) {
        total_supports[c][v] += chunk_supports[chunk][c][v];
      }
    }
  }

  out.estimated_means = total_means.Estimate();
  for (uint32_t c = 0; c < dc; ++c) {
    out.estimated_frequencies.push_back(
        oracles[c]->Estimate(total_supports[c], n));
  }
  return out;
}

Status CheckRowWidth(const MixedTuple& row,
                     const MixedTupleCollector& collector) {
  if (row.size() != collector.dimension()) {
    return Status::InvalidArgument(
        "row must carry one value per schema attribute");
  }
  return Status::OK();
}

}  // namespace

const char* NumericStrategyToString(NumericStrategy strategy) {
  switch (strategy) {
    case NumericStrategy::kLaplaceSplit:
      return "Laplace";
    case NumericStrategy::kScdfSplit:
      return "SCDF";
    case NumericStrategy::kStaircaseSplit:
      return "Staircase";
    case NumericStrategy::kDuchiMulti:
      return "Duchi";
  }
  return "unknown";
}

Result<std::vector<MixedAttribute>> AttributesFromSchema(
    const data::Schema& schema) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("schema has no columns");
  }
  std::vector<MixedAttribute> mixed;
  mixed.reserve(schema.num_columns());
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    const data::ColumnSpec& spec = schema.column(col);
    if (spec.type == data::ColumnType::kNumeric) {
      mixed.push_back(MixedAttribute::Numeric());
    } else {
      mixed.push_back(MixedAttribute::Categorical(spec.domain_size));
    }
  }
  return mixed;
}

void RowToTuple(const data::Schema& schema,
                const std::vector<double>& numeric_row,
                const std::vector<uint32_t>& category_row, MixedTuple* tuple) {
  const std::vector<data::ColumnSpec>& columns = schema.columns();
  for (size_t col = 0; col < columns.size(); ++col) {
    const data::ColumnSpec& spec = columns[col];
    if (spec.type == data::ColumnType::kNumeric) {
      (*tuple)[col].numeric =
          data::NormalizeToUnit(numeric_row[col], spec.lo, spec.hi);
    } else {
      (*tuple)[col].category = category_row[col];
    }
  }
}

Result<PipelineConfig> PipelineConfig::FromSchema(const data::Schema& schema,
                                                  double epsilon) {
  PipelineConfig config;
  LDP_ASSIGN_OR_RETURN(config.attributes, AttributesFromSchema(schema));
  config.epsilon = epsilon;
  return config;
}

Result<Pipeline> Pipeline::Create(PipelineConfig config) {
  if (config.plan.epochs == 0) {
    return Status::InvalidArgument("epoch plan must cover at least one epoch");
  }
  if (config.plan.lifetime_budget != 0.0 &&
      !(std::isfinite(config.plan.lifetime_budget) &&
        config.plan.lifetime_budget > 0.0)) {
    return Status::InvalidArgument(
        "lifetime budget must be positive and finite (or 0 for the plan "
        "default)");
  }

  auto state = std::make_shared<PipelineState>();
  Result<MixedTupleCollector> collector = MixedTupleCollector::Create(
      config.attributes, config.epsilon, config.mechanism, config.oracle);
  if (!collector.ok()) return collector.status();
  state->collector.emplace(std::move(collector).value());
  state->header = stream::MakeMixedStreamHeader(*state->collector);

  state->lifetime_budget =
      config.plan.lifetime_budget != 0.0
          ? config.plan.lifetime_budget
          : static_cast<double>(config.plan.epochs) * config.epsilon;
  state->config = std::move(config);
  return Pipeline(std::move(state));
}

Result<CollectionOutput> Pipeline::Collect(const data::Dataset& dataset,
                                           uint64_t seed,
                                           ThreadPool* pool) const {
  LDP_RETURN_IF_ERROR(ValidateNormalized(dataset.schema()));
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  LDP_RETURN_IF_ERROR(
      ValidateDatasetMatches(dataset, state_->config.attributes));
  if (state_->config.baseline.has_value()) {
    return RunBaseline(dataset, state_->config.epsilon, seed,
                       *state_->config.baseline, state_->config.oracle, pool);
  }
  LDP_RETURN_IF_ERROR(CheckWireEncodable(*state_->collector));
  return RunProposed(*state_->collector, dataset, seed, pool);
}

Result<ClientSession> Pipeline::NewClient() const {
  if (state_->config.baseline.has_value()) {
    return Status::FailedPrecondition(
        "baseline pipelines are simulation-only and have no wire sessions");
  }
  LDP_RETURN_IF_ERROR(CheckWireEncodable(*state_->collector));
  return ClientSession(state_);
}

const PipelineConfig& Pipeline::config() const { return state_->config; }

const stream::StreamHeader& Pipeline::header() const { return state_->header; }

double Pipeline::epsilon() const { return state_->config.epsilon; }

uint32_t Pipeline::dimension() const {
  return static_cast<uint32_t>(state_->config.attributes.size());
}

uint32_t Pipeline::k() const { return state_->collector->k(); }

const MixedTupleCollector& Pipeline::mixed_collector() const {
  return *state_->collector;
}

stream::StreamHeader ClientSession::header() const { return state_->header; }

std::string ClientSession::EncodeHeader() const {
  return stream::EncodeStreamHeader(state_->header);
}

uint32_t ClientSession::k() const { return state_->collector->k(); }

uint32_t ClientSession::dimension() const {
  return state_->collector->dimension();
}

Status ClientSession::AppendFrame(const MixedTuple& row, Rng* rng,
                                  std::string* frames) const {
  LDP_RETURN_IF_ERROR(CheckRowWidth(row, *state_->collector));
  return stream::AppendReportFrame(*state_->collector, row, rng, frames);
}

Result<std::string> ClientSession::EncodeReport(const MixedTuple& row,
                                                Rng* rng) const {
  LDP_RETURN_IF_ERROR(CheckRowWidth(row, *state_->collector));
  // Straight into the result: most k = 1 reports fit its small-string room.
  std::string report;
  LDP_RETURN_IF_ERROR(state_->collector->AppendReport(row, rng, &report));
  if (report.size() > stream::kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  return report;
}

}  // namespace ldp::api
