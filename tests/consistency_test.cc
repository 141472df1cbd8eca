// Post-processing consistency: the simplex-projected frequency estimates of
// the mixed aggregator, and the error ordering raw vs projected on sparse
// histograms.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/mixed_collector.h"
#include "frequency/histogram.h"
#include "frequency/oue.h"
#include "util/random.h"
#include "wire_report.h"

namespace ldp {
namespace {

TEST(MixedProjectedFrequenciesTest, ProjectionYieldsDistribution) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Categorical(6), MixedAttribute::Numeric()}, 0.5);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    MixedTuple tuple(2);
    tuple[0] = AttributeValue::Categorical(
        static_cast<uint32_t>(rng.UniformIndex(6)));
    tuple[1] = AttributeValue::Numeric(0.0);
    testing::PerturbAndFold(collector.value(), tuple, &rng, &aggregator);
  }
  auto projected = aggregator.EstimateFrequenciesProjected(0);
  ASSERT_TRUE(projected.ok());
  double total = 0.0;
  for (const double f : projected.value()) {
    EXPECT_GE(f, 0.0);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MixedProjectedFrequenciesTest, RejectsNumericAttribute) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Categorical(3), MixedAttribute::Numeric()}, 1.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  EXPECT_FALSE(aggregator.EstimateFrequenciesProjected(1).ok());
  EXPECT_FALSE(aggregator.EstimateFrequenciesProjected(7).ok());
}

TEST(MixedProjectedFrequenciesTest, AgreesWithManualProjection) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Categorical(4)}, 1.0);
  ASSERT_TRUE(collector.ok());
  MixedAggregator aggregator(&collector.value());
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    MixedTuple tuple(1);
    tuple[0] = AttributeValue::Categorical(i % 4 == 0 ? 0u : 1u);
    testing::PerturbAndFold(collector.value(), tuple, &rng, &aggregator);
  }
  const auto raw = aggregator.EstimateFrequencies(0);
  const auto projected = aggregator.EstimateFrequenciesProjected(0);
  ASSERT_TRUE(raw.ok() && projected.ok());
  const std::vector<double> manual = ProjectOntoSimplex(raw.value());
  for (size_t v = 0; v < manual.size(); ++v) {
    EXPECT_DOUBLE_EQ(projected.value()[v], manual[v]);
  }
}

TEST(ProjectionErrorTest, ProjectionBeatsRawOnSparseSkewedHistograms) {
  // On a heavily skewed histogram with few reports, the projected estimate's
  // L2 error should beat the raw unbiased estimate's on average — the reason
  // the post-processing exists.
  const uint32_t domain = 20;
  const OueOracle oracle(0.5, domain);
  std::vector<double> truth(domain, 0.0);
  truth[0] = 0.7;
  truth[1] = 0.3;
  Rng rng(3);
  double raw_error = 0.0, projected_error = 0.0;
  const int reps = 200;
  for (int rep = 0; rep < reps; ++rep) {
    FrequencyEstimator estimator(&oracle);
    for (int i = 0; i < 150; ++i) {
      estimator.Add(oracle.Perturb(rng.Bernoulli(0.7) ? 0u : 1u, &rng));
    }
    const auto raw = estimator.RawEstimate();
    const auto projected = estimator.ProjectedEstimate();
    for (uint32_t v = 0; v < domain; ++v) {
      raw_error += (raw[v] - truth[v]) * (raw[v] - truth[v]);
      projected_error +=
          (projected[v] - truth[v]) * (projected[v] - truth[v]);
    }
  }
  EXPECT_LT(projected_error, raw_error);
}

}  // namespace
}  // namespace ldp
