// In-process collection through the session facade (api::Pipeline::Collect):
// the paper's proposed pipeline and the split-budget baselines, exercised
// over the census generator. These were the aggregate::CollectProposed /
// CollectBaseline wrapper tests before that surface was retired; they now
// target the facade directly.
#include "api/pipeline.h"

#include <gtest/gtest.h>

#include "aggregate/metrics.h"
#include "data/census.h"
#include "data/encode.h"
#include "data/generators.h"

namespace ldp::api {
namespace {

data::Dataset SmallCensus(uint64_t n = 20000) {
  auto census = data::MakeBrazilCensus(n, 7);
  EXPECT_TRUE(census.ok());
  return data::NormalizeNumeric(census.value());
}

// One config-driven collection run: schema from the dataset, then Collect.
Result<CollectionOutput> Collect(const data::Dataset& dataset,
                                 PipelineConfig config, uint64_t seed,
                                 ThreadPool* pool = nullptr) {
  LDP_ASSIGN_OR_RETURN(config.attributes,
                       AttributesFromSchema(dataset.schema()));
  Result<Pipeline> pipeline = Pipeline::Create(std::move(config));
  if (!pipeline.ok()) return pipeline.status();
  return pipeline.value().Collect(dataset, seed, pool);
}

Result<CollectionOutput> CollectProposed(
    const data::Dataset& dataset, double epsilon, uint64_t seed,
    MechanismKind numeric_kind = MechanismKind::kHybrid,
    FrequencyOracleKind categorical_kind = FrequencyOracleKind::kOue,
    ThreadPool* pool = nullptr) {
  PipelineConfig config;
  config.epsilon = epsilon;
  config.mechanism = numeric_kind;
  config.oracle = categorical_kind;
  return Collect(dataset, std::move(config), seed, pool);
}

Result<CollectionOutput> CollectBaseline(
    const data::Dataset& dataset, double epsilon, uint64_t seed,
    NumericStrategy strategy,
    FrequencyOracleKind categorical_kind = FrequencyOracleKind::kOue,
    ThreadPool* pool = nullptr) {
  PipelineConfig config;
  config.epsilon = epsilon;
  config.oracle = categorical_kind;
  config.baseline = strategy;
  return Collect(dataset, std::move(config), seed, pool);
}

TEST(AttributesFromSchemaTest, MapsColumnTypes) {
  const data::Dataset dataset = SmallCensus(10);
  auto mixed = AttributesFromSchema(dataset.schema());
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed.value().size(), 16u);
  EXPECT_EQ(mixed.value()[0].type, AttributeType::kNumeric);
  EXPECT_EQ(mixed.value()[6].type, AttributeType::kCategorical);
  EXPECT_EQ(mixed.value()[6].domain_size,
            dataset.schema().column(6).domain_size);
}

TEST(AttributesFromSchemaTest, RejectsEmptySchema) {
  EXPECT_FALSE(AttributesFromSchema(data::Schema()).ok());
}

TEST(PipelineCollectTest, RequiresNormalizedNumericColumns) {
  auto census = data::MakeBrazilCensus(100, 1);
  ASSERT_TRUE(census.ok());
  auto result = CollectProposed(census.value(), 1.0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineCollectTest, RejectsEmptyDatasetAndBadBudget) {
  data::Dataset empty(SmallCensus(10).schema());
  EXPECT_FALSE(CollectProposed(empty, 1.0, 1).ok());
  EXPECT_FALSE(CollectProposed(SmallCensus(100), 0.0, 1).ok());
}

TEST(PipelineCollectTest, OutputsEstimatesForEveryColumn) {
  const data::Dataset dataset = SmallCensus();
  auto result = CollectProposed(dataset, 4.0, 1);
  ASSERT_TRUE(result.ok());
  const CollectionOutput& out = result.value();
  EXPECT_EQ(out.numeric_columns.size(), 6u);
  EXPECT_EQ(out.categorical_columns.size(), 10u);
  EXPECT_EQ(out.estimated_means.size(), 6u);
  EXPECT_EQ(out.estimated_frequencies.size(), 10u);
  for (size_t c = 0; c < out.categorical_columns.size(); ++c) {
    EXPECT_EQ(out.estimated_frequencies[c].size(),
              out.true_frequencies[c].size());
  }
}

TEST(PipelineCollectTest, EstimatesApproachTruthAtLargeBudget) {
  const data::Dataset dataset = SmallCensus(50000);
  auto result = CollectProposed(dataset, 8.0, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(aggregate::NumericMse(result.value()), 0.01);
  EXPECT_LT(aggregate::CategoricalMse(result.value()), 0.01);
}

TEST(PipelineCollectTest, DeterministicInSeedAndThreadCountInvariant) {
  const data::Dataset dataset = SmallCensus(5000);
  auto serial = CollectProposed(dataset, 1.0, 3);
  auto serial_again = CollectProposed(dataset, 1.0, 3);
  ASSERT_TRUE(serial.ok() && serial_again.ok());
  EXPECT_EQ(serial.value().estimated_means,
            serial_again.value().estimated_means);
  // Per-user RNGs and exact sums make results independent of the pool:
  // equal bits at every size, though the chunks differ.
  for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    ThreadPool pool(threads);
    auto parallel = CollectProposed(dataset, 1.0, 3, MechanismKind::kHybrid,
                                    FrequencyOracleKind::kOue, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.value().estimated_means,
              serial.value().estimated_means)
        << threads << " threads";
    EXPECT_EQ(parallel.value().estimated_frequencies,
              serial.value().estimated_frequencies)
        << threads << " threads";
  }
}

TEST(PipelineCollectTest, DifferentSeedsGiveDifferentNoise) {
  const data::Dataset dataset = SmallCensus(2000);
  auto a = CollectProposed(dataset, 1.0, 1);
  auto b = CollectProposed(dataset, 1.0, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().estimated_means[0], b.value().estimated_means[0]);
}

TEST(PipelineBaselineTest, AllStrategiesProduceEstimates) {
  const data::Dataset dataset = SmallCensus(5000);
  for (const NumericStrategy strategy :
       {NumericStrategy::kLaplaceSplit, NumericStrategy::kScdfSplit,
        NumericStrategy::kStaircaseSplit, NumericStrategy::kDuchiMulti}) {
    auto result = CollectBaseline(dataset, 1.0, 1, strategy);
    ASSERT_TRUE(result.ok()) << NumericStrategyToString(strategy);
    EXPECT_EQ(result.value().estimated_means.size(), 6u);
    EXPECT_EQ(result.value().estimated_frequencies.size(), 10u);
  }
}

TEST(PipelineBaselineTest, NumericOnlyDataset) {
  Rng rng(1);
  auto numeric = data::MakeUniform(4, 20000, &rng);
  ASSERT_TRUE(numeric.ok());
  auto result = CollectBaseline(numeric.value(), 2.0, 1,
                                NumericStrategy::kDuchiMulti);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().estimated_means.size(), 4u);
  EXPECT_TRUE(result.value().estimated_frequencies.empty());
  EXPECT_LT(aggregate::NumericMse(result.value()), 0.05);
}

TEST(PipelineBaselineTest, ParallelMatchesSerialIncludingCategorical) {
  // Regression test: chunk-local support tables must start from zero, not
  // from a racy copy of the partially merged totals.
  // HE keeps two support counts per value, so its tables are sized apart.
  const data::Dataset dataset = SmallCensus(8000);
  ThreadPool pool(4);
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kOue, FrequencyOracleKind::kHe}) {
    auto serial = CollectBaseline(dataset, 1.0, 5,
                                  NumericStrategy::kDuchiMulti, oracle);
    auto parallel = CollectBaseline(
        dataset, 1.0, 5, NumericStrategy::kDuchiMulti, oracle, &pool);
    ASSERT_TRUE(serial.ok() && parallel.ok());
    for (size_t j = 0; j < serial.value().estimated_means.size(); ++j) {
      EXPECT_NEAR(serial.value().estimated_means[j],
                  parallel.value().estimated_means[j], 1e-12);
    }
    // Supports are integer counts: exact whatever the chunking. The numeric
    // means are double sums reduced per chunk, so only close.
    EXPECT_EQ(serial.value().estimated_frequencies,
              parallel.value().estimated_frequencies)
        << FrequencyOracleKindToString(oracle);
  }
}

TEST(PipelineBaselineTest, StrategyNames) {
  EXPECT_STREQ(NumericStrategyToString(NumericStrategy::kLaplaceSplit),
               "Laplace");
  EXPECT_STREQ(NumericStrategyToString(NumericStrategy::kScdfSplit), "SCDF");
  EXPECT_STREQ(NumericStrategyToString(NumericStrategy::kStaircaseSplit),
               "Staircase");
  EXPECT_STREQ(NumericStrategyToString(NumericStrategy::kDuchiMulti),
               "Duchi");
}

TEST(ProposedVsBaselineTest, ProposedWinsOnCensusData) {
  // The paper's Fig. 4 headline: the proposed pipeline beats the best-effort
  // split-budget combination on both numeric and categorical error.
  const data::Dataset dataset = SmallCensus(60000);
  const double eps = 1.0;
  // Average over a few seeds to keep this test stable.
  double proposed_num = 0.0, proposed_cat = 0.0;
  double baseline_num = 0.0, baseline_cat = 0.0;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    auto proposed = CollectProposed(dataset, eps, 100 + rep);
    auto baseline =
        CollectBaseline(dataset, eps, 200 + rep, NumericStrategy::kDuchiMulti);
    ASSERT_TRUE(proposed.ok() && baseline.ok());
    proposed_num += aggregate::NumericMse(proposed.value()) / reps;
    proposed_cat += aggregate::CategoricalMse(proposed.value()) / reps;
    baseline_num += aggregate::NumericMse(baseline.value()) / reps;
    baseline_cat += aggregate::CategoricalMse(baseline.value()) / reps;
  }
  EXPECT_LT(proposed_num, baseline_num);
  EXPECT_LT(proposed_cat, baseline_cat);
}

TEST(ProposedTest, PmAndHmBothWork) {
  const data::Dataset dataset = SmallCensus(20000);
  auto pm = CollectProposed(dataset, 1.0, 1, MechanismKind::kPiecewise);
  auto hm = CollectProposed(dataset, 1.0, 1, MechanismKind::kHybrid);
  ASSERT_TRUE(pm.ok() && hm.ok());
  EXPECT_LT(aggregate::NumericMse(pm.value()), 0.1);
  EXPECT_LT(aggregate::NumericMse(hm.value()), 0.1);
}

TEST(ProposedTest, MoreUsersReduceError) {
  // Lemma 5's 1/n decay, checked end-to-end at two population sizes.
  auto census_small = SmallCensus(4000);
  auto census_large = SmallCensus(64000);
  double mse_small = 0.0, mse_large = 0.0;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    auto small = CollectProposed(census_small, 1.0, 300 + rep);
    auto large = CollectProposed(census_large, 1.0, 400 + rep);
    ASSERT_TRUE(small.ok() && large.ok());
    mse_small += aggregate::NumericMse(small.value()) / reps;
    mse_large += aggregate::NumericMse(large.value()) / reps;
  }
  // 16x the users should cut MSE by ~16; allow wide slack for stability.
  EXPECT_LT(mse_large, mse_small / 4.0);
}

}  // namespace
}  // namespace ldp::api
