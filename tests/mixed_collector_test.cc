#include "core/mixed_collector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampled_numeric.h"
#include "core/variance.h"
#include "core/wire.h"
#include "test_util.h"
#include "wire_report.h"

namespace ldp {
namespace {

using testing::PerturbAndFold;
using testing::PerturbBytes;

std::vector<MixedAttribute> SmallSchema() {
  return {MixedAttribute::Numeric(), MixedAttribute::Categorical(3),
          MixedAttribute::Numeric(), MixedAttribute::Categorical(5)};
}

TEST(MixedTupleCollectorTest, CreateValidatesArguments) {
  EXPECT_FALSE(MixedTupleCollector::Create({}, 1.0).ok());
  EXPECT_FALSE(MixedTupleCollector::Create(SmallSchema(), 0.0).ok());
  EXPECT_FALSE(
      MixedTupleCollector::Create({MixedAttribute::Categorical(1)}, 1.0).ok());
  EXPECT_TRUE(MixedTupleCollector::Create(SmallSchema(), 1.0).ok());
}

TEST(MixedTupleCollectorTest, KFollowsEquation12) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 7.6);
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector.value().k(), AttributeSampleCount(7.6, 4));
  EXPECT_NEAR(collector.value().per_attribute_epsilon(),
              7.6 / collector.value().k(), 1e-12);
}

TEST(MixedTupleCollectorTest, OraclesOnlyAtCategoricalPositions) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 1.0);
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector.value().oracle_for(0), nullptr);
  ASSERT_NE(collector.value().oracle_for(1), nullptr);
  EXPECT_EQ(collector.value().oracle_for(1)->domain_size(), 3u);
  EXPECT_EQ(collector.value().oracle_for(2), nullptr);
  ASSERT_NE(collector.value().oracle_for(3), nullptr);
  EXPECT_EQ(collector.value().oracle_for(3)->domain_size(), 5u);
}

TEST(MixedTupleCollectorTest, EqualDomainsShareOneOracle) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Categorical(4), MixedAttribute::Categorical(4)}, 1.0);
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector.value().oracle_for(0), collector.value().oracle_for(1));
}

TEST(MixedTupleCollectorTest, ReportsHaveKEntries) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 6.0);
  ASSERT_TRUE(collector.ok());
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.5);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.5);
  tuple[3] = AttributeValue::Categorical(4);
  Rng rng(1);
  MixedFrameDecoder decoder(&collector.value());
  for (int i = 0; i < 200; ++i) {
    const std::string bytes = PerturbBytes(collector.value(), tuple, &rng);
    ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
    ASSERT_EQ(decoder.entries().size(), collector.value().k());
    for (const MixedEntryView& entry : decoder.entries()) {
      EXPECT_LT(entry.attribute, 4u);
      // Categorical entries carry a valid oracle report (an OUE report may
      // legitimately be empty: no bits survived the flips).
      if (entry.attribute == 1 || entry.attribute == 3) {
        EXPECT_EQ(entry.oracle, collector.value().oracle_for(entry.attribute));
        const uint32_t domain =
            collector.value().schema()[entry.attribute].domain_size;
        for (size_t b = 0; b < entry.payload.size(); ++b) {
          EXPECT_LT(entry.payload[b], domain);
        }
      } else {
        EXPECT_EQ(entry.oracle, nullptr);
      }
    }
  }
}

// Simulates n users whose tuples realise known means/frequencies and checks
// the aggregator's estimates against the ground truth.
class MixedEndToEndTest : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Budgets, MixedEndToEndTest,
                         ::testing::Values(1.0, 4.0));

TEST_P(MixedEndToEndTest, EstimatesMeansAndFrequencies) {
  const double eps = GetParam();
  auto collector_result = MixedTupleCollector::Create(SmallSchema(), eps);
  ASSERT_TRUE(collector_result.ok());
  const MixedTupleCollector& collector = collector_result.value();
  MixedAggregator aggregator(&collector);

  const uint64_t n = 120000;
  Rng rng(2);
  RunningStats true_mean0, true_mean2;
  std::vector<double> true_freq1(3, 0.0), true_freq3(5, 0.0);
  for (uint64_t i = 0; i < n; ++i) {
    MixedTuple tuple(4);
    tuple[0] = AttributeValue::Numeric(rng.Uniform(-1.0, 1.0));
    tuple[1] = AttributeValue::Categorical(
        rng.Bernoulli(0.6) ? 0u : (rng.Bernoulli(0.5) ? 1u : 2u));
    tuple[2] = AttributeValue::Numeric(rng.Uniform(0.0, 0.5));
    tuple[3] =
        AttributeValue::Categorical(static_cast<uint32_t>(rng.UniformIndex(5)));
    true_mean0.Add(tuple[0].numeric);
    true_mean2.Add(tuple[2].numeric);
    true_freq1[tuple[1].category] += 1.0;
    true_freq3[tuple[3].category] += 1.0;
    PerturbAndFold(collector, tuple, &rng, &aggregator);
  }
  for (double& f : true_freq1) f /= static_cast<double>(n);
  for (double& f : true_freq3) f /= static_cast<double>(n);

  EXPECT_EQ(aggregator.num_reports(), n);
  // Mean estimates: tolerance from the per-coordinate variance over n users.
  const double coord_sd = std::sqrt(
      (collector.scalar_mechanism().WorstCaseVariance() + 1.0) * 4.0 /
      static_cast<double>(n));
  auto mean0 = aggregator.EstimateMean(0);
  auto mean2 = aggregator.EstimateMean(2);
  ASSERT_TRUE(mean0.ok());
  ASSERT_TRUE(mean2.ok());
  EXPECT_NEAR(mean0.value(), true_mean0.Mean(), 6.0 * coord_sd);
  EXPECT_NEAR(mean2.value(), true_mean2.Mean(), 6.0 * coord_sd);

  auto freq1 = aggregator.EstimateFrequencies(1);
  auto freq3 = aggregator.EstimateFrequencies(3);
  ASSERT_TRUE(freq1.ok());
  ASSERT_TRUE(freq3.ok());
  for (size_t v = 0; v < 3; ++v) {
    EXPECT_NEAR(freq1.value()[v], true_freq1[v], 0.05) << "v=" << v;
  }
  for (size_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(freq3.value()[v], true_freq3[v], 0.05) << "v=" << v;
  }
}

TEST(MixedAggregatorTest, TypeMismatchesAreRejected) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 1.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  EXPECT_FALSE(aggregator.EstimateMean(1).ok());
  EXPECT_FALSE(aggregator.EstimateFrequencies(0).ok());
  EXPECT_FALSE(aggregator.EstimateMean(99).ok());
  EXPECT_FALSE(aggregator.EstimateFrequencies(99).ok());
}

TEST(MixedAggregatorTest, EmptyAggregatorEstimatesZero) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 1.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  EXPECT_EQ(aggregator.num_reports(), 0u);
  auto mean = aggregator.EstimateMean(0);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean.value(), 0.0);
}

TEST(MixedAggregatorTest, MergeMatchesSequentialAggregation) {
  auto collector_result = MixedTupleCollector::Create(SmallSchema(), 2.0);
  ASSERT_TRUE(collector_result.ok());
  const MixedTupleCollector& collector = collector_result.value();

  MixedAggregator merged_a(&collector), merged_b(&collector),
      sequential(&collector);
  MixedFrameDecoder decoder(&collector);
  Rng rng_split(3), rng_seq(3);
  for (int i = 0; i < 2000; ++i) {
    MixedTuple tuple(4);
    tuple[0] = AttributeValue::Numeric(0.3);
    tuple[1] = AttributeValue::Categorical(1);
    tuple[2] = AttributeValue::Numeric(-0.2);
    tuple[3] = AttributeValue::Categorical(0);
    const std::string split_report = PerturbBytes(collector, tuple, &rng_split);
    ASSERT_EQ(decoder.DecodeInto(split_report.data(), split_report.size(),
                                 i % 2 == 0 ? &merged_a : &merged_b),
              nullptr);
    PerturbAndFold(collector, tuple, &rng_seq, &sequential);
  }
  ASSERT_TRUE(merged_a.Merge(merged_b).ok());
  EXPECT_EQ(merged_a.num_reports(), sequential.num_reports());
  EXPECT_NEAR(merged_a.EstimateMean(0).value(),
              sequential.EstimateMean(0).value(), 1e-12);
  const auto f_merged = merged_a.EstimateFrequencies(3).value();
  const auto f_seq = sequential.EstimateFrequencies(3).value();
  for (size_t v = 0; v < f_merged.size(); ++v) {
    EXPECT_NEAR(f_merged[v], f_seq[v], 1e-12);
  }
}

TEST(MixedAggregatorTest, MergeAcceptsCompatibleCollectorInstances) {
  // Two separately constructed collectors with identical configuration —
  // the cross-process sharding case: reports aggregated on one machine must
  // merge into an aggregator built on another.
  auto collector_a = MixedTupleCollector::Create(SmallSchema(), 2.0);
  auto collector_b = MixedTupleCollector::Create(SmallSchema(), 2.0);
  ASSERT_TRUE(collector_a.ok());
  ASSERT_TRUE(collector_b.ok());
  EXPECT_TRUE(collector_a.value().CompatibleWith(collector_b.value()));

  MixedAggregator a(&collector_a.value()), b(&collector_b.value());
  Rng rng(17);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.1);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(0.9);
  tuple[3] = AttributeValue::Categorical(4);
  for (int i = 0; i < 100; ++i) {
    PerturbAndFold(collector_a.value(), tuple, &rng, &a);
    PerturbAndFold(collector_b.value(), tuple, &rng, &b);
  }
  EXPECT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.num_reports(), 200u);
}

TEST(MixedAggregatorTest, MergeRejectsIncompatibleCollectors) {
  auto collector = MixedTupleCollector::Create(SmallSchema(), 2.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());

  // Different ε.
  auto other_epsilon = MixedTupleCollector::Create(SmallSchema(), 1.0);
  ASSERT_TRUE(other_epsilon.ok());
  MixedAggregator epsilon_agg(&other_epsilon.value());
  EXPECT_EQ(aggregator.Merge(epsilon_agg).code(),
            StatusCode::kFailedPrecondition);

  // Different dimension.
  auto other_dimension = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(3)}, 2.0);
  ASSERT_TRUE(other_dimension.ok());
  MixedAggregator dimension_agg(&other_dimension.value());
  EXPECT_FALSE(aggregator.Merge(dimension_agg).ok());

  // Same shape, different categorical domain (supports sizes differ).
  auto other_domain = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(3),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(7)},
      2.0);
  ASSERT_TRUE(other_domain.ok());
  MixedAggregator domain_agg(&other_domain.value());
  EXPECT_FALSE(aggregator.Merge(domain_agg).ok());

  // Different oracle kind.
  auto other_oracle = MixedTupleCollector::Create(
      SmallSchema(), 2.0, MechanismKind::kHybrid, FrequencyOracleKind::kGrr);
  ASSERT_TRUE(other_oracle.ok());
  MixedAggregator oracle_agg(&other_oracle.value());
  EXPECT_FALSE(aggregator.Merge(oracle_agg).ok());

  // The failed merges must leave the target untouched.
  EXPECT_EQ(aggregator.num_reports(), 0u);
}

TEST(MixedTupleCollectorTest, AllNumericSchemaBehavesLikeAlgorithm4) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Numeric()}, 1.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  Rng rng(4);
  const uint64_t n = 60000;
  for (uint64_t i = 0; i < n; ++i) {
    MixedTuple tuple(2);
    tuple[0] = AttributeValue::Numeric(0.4);
    tuple[1] = AttributeValue::Numeric(-0.6);
    PerturbAndFold(collector.value(), tuple, &rng, &aggregator);
  }
  EXPECT_NEAR(aggregator.EstimateMean(0).value(), 0.4, 0.1);
  EXPECT_NEAR(aggregator.EstimateMean(1).value(), -0.6, 0.1);
}

TEST(MixedTupleCollectorTest, AllNumericPerturbIsAlgorithm4BitForBit) {
  // Section IV-C restricted to numeric attributes is Algorithm 4: from an
  // equal Rng, both draw the same k attributes in the same order and the
  // same d/k-scaled PM/HM values, for every k from 1 to d. This is what lets
  // one report format carry all-numeric schemas. The mixed side is read
  // back from the wire bytes the client writes.
  constexpr uint32_t kD = 5;
  // ε values whose Eq. 12 sample count k = ⌊ε/2.5⌋ (clamped to [1, d]) is
  // 1, 2, 3, 4, 5 in turn.
  const double kEpsilons[] = {1.0, 5.5, 8.0, 10.5, 13.0};
  const MixedTuple tuple = {
      AttributeValue::Numeric(0.9), AttributeValue::Numeric(-0.3),
      AttributeValue::Numeric(0.0), AttributeValue::Numeric(-1.0),
      AttributeValue::Numeric(0.55)};
  const std::vector<double> values = {0.9, -0.3, 0.0, -1.0, 0.55};
  for (const MechanismKind kind :
       {MechanismKind::kPiecewise, MechanismKind::kHybrid}) {
    for (uint32_t i = 0; i < kD; ++i) {
      const double epsilon = kEpsilons[i];
      auto collector = MixedTupleCollector::Create(
          std::vector<MixedAttribute>(kD, MixedAttribute::Numeric()), epsilon,
          kind);
      ASSERT_TRUE(collector.ok());
      auto mechanism = SampledNumericMechanism::Create(kind, epsilon, kD);
      ASSERT_TRUE(mechanism.ok());
      ASSERT_EQ(collector.value().k(), i + 1);
      ASSERT_EQ(mechanism.value().k(), i + 1);

      MixedFrameDecoder decoder(&collector.value());
      Rng mixed_rng(100 + i);
      Rng numeric_rng(100 + i);
      for (int trial = 0; trial < 200; ++trial) {
        const std::string bytes =
            PerturbBytes(collector.value(), tuple, &mixed_rng);
        ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
        const std::vector<MixedEntryView>& mixed = decoder.entries();
        const SampledNumericReport numeric =
            mechanism.value().Perturb(values, &numeric_rng);
        ASSERT_EQ(mixed.size(), numeric.size());
        for (size_t e = 0; e < mixed.size(); ++e) {
          EXPECT_EQ(mixed[e].attribute, numeric[e].attribute)
              << MechanismKindToString(kind) << " k=" << i + 1;
          EXPECT_EQ(mixed[e].numeric_value, numeric[e].value)
              << MechanismKindToString(kind) << " k=" << i + 1;
        }
      }
      // Both consumed exactly the same randomness.
      EXPECT_EQ(mixed_rng.Next(), numeric_rng.Next());
    }
  }
}

TEST(MixedTupleCollectorTest, AllCategoricalSchemaEstimatesFrequencies) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Categorical(2), MixedAttribute::Categorical(2)}, 2.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  Rng rng(5);
  const uint64_t n = 60000;
  for (uint64_t i = 0; i < n; ++i) {
    MixedTuple tuple(2);
    tuple[0] = AttributeValue::Categorical(rng.Bernoulli(0.8) ? 1u : 0u);
    tuple[1] = AttributeValue::Categorical(rng.Bernoulli(0.25) ? 1u : 0u);
    PerturbAndFold(collector.value(), tuple, &rng, &aggregator);
  }
  EXPECT_NEAR(aggregator.EstimateFrequencies(0).value()[1], 0.8, 0.05);
  EXPECT_NEAR(aggregator.EstimateFrequencies(1).value()[1], 0.25, 0.05);
}

}  // namespace
}  // namespace ldp
