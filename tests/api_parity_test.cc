// The redesign contract of the api::Pipeline facade: Pipeline::Collect must
// stay BIT-IDENTICAL to the paper's per-user collection loops. The golden
// behavior is pinned by re-running the original loops inline
// (collector.AppendReport + UserRng + decode and fold + chunk-ordered
// aggregation) and comparing
// every estimated bit against the facade's output.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "aggregate/estimators.h"
#include "api/pipeline.h"
#include "api/server_session.h"
#include "baselines/duchi_multi_dim.h"
#include "data/census.h"
#include "data/encode.h"
#include "util/threadpool.h"
#include "wire_report.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kSeed = 99;
constexpr uint64_t kRows = 3000;

data::Dataset MakeData() {
  auto dataset = data::MakeBrazilCensus(kRows, 11);
  EXPECT_TRUE(dataset.ok());
  return data::NormalizeNumeric(dataset.value());
}

// One facade collection run over `dataset` with the schema filled in.
Result<api::CollectionOutput> CollectViaPipeline(const data::Dataset& dataset,
                                                 api::PipelineConfig config,
                                                 ThreadPool* pool = nullptr) {
  LDP_ASSIGN_OR_RETURN(config.attributes,
                       api::AttributesFromSchema(dataset.schema()));
  Result<api::Pipeline> pipeline = api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) return pipeline.status();
  return pipeline.value().Collect(dataset, kSeed, pool);
}

// The paper's proposed loop, spelled out: one aggregator, rows in order,
// UserRng per row.
MixedAggregator DirectProposed(const data::Dataset& dataset,
                               const MixedTupleCollector& collector) {
  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  MixedAggregator aggregator(&collector);
  MixedTuple tuple(d);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    for (uint32_t col = 0; col < d; ++col) {
      if (schema.column(col).type == data::ColumnType::kNumeric) {
        tuple[col].numeric = dataset.numeric(row, col);
      } else {
        tuple[col].category = dataset.category(row, col);
      }
    }
    Rng rng = api::UserRng(kSeed, row);
    testing::PerturbAndFold(collector, tuple, &rng, &aggregator);
  }
  return aggregator;
}

TEST(ApiParityTest, PipelineCollectMatchesDirectSimulationBitForBit) {
  const data::Dataset dataset = MakeData();
  auto schema = api::AttributesFromSchema(dataset.schema());
  ASSERT_TRUE(schema.ok());
  auto collector =
      MixedTupleCollector::Create(std::move(schema).value(), kEpsilon);
  ASSERT_TRUE(collector.ok());
  const MixedAggregator direct =
      DirectProposed(dataset, collector.value());

  api::PipelineConfig config;
  config.epsilon = kEpsilon;
  auto output = CollectViaPipeline(dataset, std::move(config));
  ASSERT_TRUE(output.ok());
  for (size_t j = 0; j < output.value().numeric_columns.size(); ++j) {
    auto mean = direct.EstimateMean(output.value().numeric_columns[j]);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(output.value().estimated_means[j], mean.value());
  }
  for (size_t c = 0; c < output.value().categorical_columns.size(); ++c) {
    auto freqs =
        direct.EstimateFrequencies(output.value().categorical_columns[c]);
    ASSERT_TRUE(freqs.ok());
    EXPECT_EQ(output.value().estimated_frequencies[c], freqs.value());
  }
}

TEST(ApiParityTest, BaselineCollectMatchesDirectSimulationBitForBit) {
  const data::Dataset dataset = MakeData();
  const data::Schema& schema = dataset.schema();
  const std::vector<uint32_t> numeric_columns = schema.NumericColumnIndices();
  const std::vector<uint32_t> categorical_columns =
      schema.CategoricalColumnIndices();
  const uint32_t dn = static_cast<uint32_t>(numeric_columns.size());
  const uint32_t dc = static_cast<uint32_t>(categorical_columns.size());
  const uint32_t d = dn + dc;
  ASSERT_GT(dn, 0u);
  ASSERT_GT(dc, 0u);

  // The split-budget baseline loop for the Duchi strategy.
  DuchiMultiDimMechanism duchi(kEpsilon * dn / d, dn);
  std::vector<std::unique_ptr<FrequencyOracle>> oracles;
  for (const uint32_t col : categorical_columns) {
    auto oracle =
        MakeFrequencyOracle(FrequencyOracleKind::kOue, kEpsilon / d,
                            schema.column(col).domain_size);
    ASSERT_TRUE(oracle.ok());
    oracles.push_back(std::move(oracle).value());
  }
  aggregate::VectorMeanEstimator means(dn);
  std::vector<std::vector<double>> supports;
  for (const uint32_t col : categorical_columns) {
    supports.emplace_back(schema.column(col).domain_size, 0.0);
  }
  std::vector<double> numeric_tuple(dn, 0.0);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    Rng rng = api::UserRng(kSeed, row);
    for (uint32_t j = 0; j < dn; ++j) {
      numeric_tuple[j] = dataset.numeric(row, numeric_columns[j]);
    }
    means.Add(duchi.Perturb(numeric_tuple, &rng));
    for (uint32_t c = 0; c < dc; ++c) {
      const uint32_t value = dataset.category(row, categorical_columns[c]);
      oracles[c]->Accumulate(oracles[c]->Perturb(value, &rng), &supports[c]);
    }
  }

  api::PipelineConfig config;
  config.epsilon = kEpsilon;
  config.baseline = api::NumericStrategy::kDuchiMulti;
  auto output = CollectViaPipeline(dataset, std::move(config));
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output.value().estimated_means, means.Estimate());
  for (uint32_t c = 0; c < dc; ++c) {
    EXPECT_EQ(output.value().estimated_frequencies[c],
              oracles[c]->Estimate(supports[c], dataset.num_rows()));
  }
}

TEST(ApiParityTest, FromSchemaConfigMatchesHandBuiltConfig) {
  // PipelineConfig::FromSchema and an explicitly assembled config must
  // describe the same protocol, bit for bit.
  const data::Dataset dataset = MakeData();
  auto config =
      api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(config.value());
  ASSERT_TRUE(pipeline.ok());
  auto via_from_schema = pipeline.value().Collect(dataset, kSeed);
  api::PipelineConfig by_hand;
  by_hand.epsilon = kEpsilon;
  auto via_hand_built = CollectViaPipeline(dataset, std::move(by_hand));
  ASSERT_TRUE(via_from_schema.ok());
  ASSERT_TRUE(via_hand_built.ok());
  EXPECT_EQ(via_from_schema.value().estimated_means,
            via_hand_built.value().estimated_means);
  EXPECT_EQ(via_from_schema.value().estimated_frequencies,
            via_hand_built.value().estimated_frequencies);
}

TEST(ApiParityTest, PooledCollectStaysBitDeterministic) {
  const data::Dataset dataset = MakeData();
  ThreadPool pool_a(3), pool_b(3);
  api::PipelineConfig config_a;
  config_a.epsilon = kEpsilon;
  api::PipelineConfig config_b = config_a;
  auto a = CollectViaPipeline(dataset, std::move(config_a), &pool_a);
  auto b = CollectViaPipeline(dataset, std::move(config_b), &pool_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().estimated_means, b.value().estimated_means);
  EXPECT_EQ(a.value().estimated_frequencies, b.value().estimated_frequencies);
}

TEST(ApiParityTest, ConfigValidation) {
  // Empty schema.
  api::PipelineConfig empty;
  empty.epsilon = 1.0;
  EXPECT_FALSE(api::Pipeline::Create(empty).ok());

  api::PipelineConfig config;
  config.attributes = {MixedAttribute::Numeric(),
                       MixedAttribute::Categorical(4)};
  config.epsilon = 1.0;

  // Bad budgets and plans.
  config.epsilon = 0.0;
  EXPECT_FALSE(api::Pipeline::Create(config).ok());
  config.epsilon = 1.0;
  config.plan.epochs = 0;
  EXPECT_FALSE(api::Pipeline::Create(config).ok());
  config.plan.epochs = 1;
  config.plan.lifetime_budget = -1.0;
  EXPECT_FALSE(api::Pipeline::Create(config).ok());
  config.plan.lifetime_budget = 0.0;

  auto pipeline = api::Pipeline::Create(config);
  ASSERT_TRUE(pipeline.ok());

  // Baseline pipelines have no wire sessions.
  config.baseline = api::NumericStrategy::kDuchiMulti;
  auto baseline = api::Pipeline::Create(config);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline.value().NewClient().ok());
  EXPECT_FALSE(baseline.value().NewServer().ok());

  // All-numeric schemas speak the same mixed stream header as any other.
  api::PipelineConfig numeric;
  numeric.attributes = {MixedAttribute::Numeric(), MixedAttribute::Numeric()};
  numeric.epsilon = 1.0;
  auto numeric_pipeline = api::Pipeline::Create(numeric);
  ASSERT_TRUE(numeric_pipeline.ok());
  EXPECT_EQ(numeric_pipeline.value().header().schema_hash,
            stream::CollectorSchemaHash(
                numeric_pipeline.value().mixed_collector()));
}

TEST(ApiParityTest, CollectRejectsMismatchedDataset) {
  const data::Dataset dataset = MakeData();
  api::PipelineConfig config;
  config.attributes = {MixedAttribute::Numeric(),
                       MixedAttribute::Categorical(4)};
  config.epsilon = kEpsilon;
  auto pipeline = api::Pipeline::Create(config);
  ASSERT_TRUE(pipeline.ok());
  EXPECT_FALSE(pipeline.value().Collect(dataset, kSeed).ok());
}

}  // namespace
}  // namespace ldp
