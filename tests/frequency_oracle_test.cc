// Factory, GRR, and the shared debiasing helpers.

#include "frequency/frequency_oracle.h"

#include <gtest/gtest.h>

#include <cmath>

#include "frequency/grr.h"
#include "frequency/histogram.h"
#include "test_util.h"

namespace ldp {
namespace {

TEST(FrequencyOracleFactoryTest, RejectsBadArguments) {
  EXPECT_FALSE(MakeFrequencyOracle(FrequencyOracleKind::kOue, 0.0, 4).ok());
  EXPECT_FALSE(MakeFrequencyOracle(FrequencyOracleKind::kOue, -1.0, 4).ok());
  EXPECT_FALSE(MakeFrequencyOracle(FrequencyOracleKind::kOue, 1.0, 1).ok());
  EXPECT_FALSE(MakeFrequencyOracle(FrequencyOracleKind::kOue, 1.0, 0).ok());
}

TEST(FrequencyOracleFactoryTest, CreatesEveryKind) {
  for (const auto kind :
       {FrequencyOracleKind::kGrr, FrequencyOracleKind::kSue,
        FrequencyOracleKind::kOue, FrequencyOracleKind::kOlh}) {
    auto oracle = MakeFrequencyOracle(kind, 1.0, 6);
    ASSERT_TRUE(oracle.ok());
    EXPECT_STREQ(oracle.value()->name(), FrequencyOracleKindToString(kind));
    EXPECT_EQ(oracle.value()->domain_size(), 6u);
    EXPECT_DOUBLE_EQ(oracle.value()->epsilon(), 1.0);
  }
}

TEST(DebiasSupportCountsTest, InvertsTheSupportExpectation) {
  // With μ = f p + (1-f) q and support = n μ, the estimate must recover f.
  const double p = 0.7, q = 0.2, f = 0.35;
  const uint64_t n = 10000;
  const double mu = f * p + (1.0 - f) * q;
  const std::vector<uint64_t> support = {
      static_cast<uint64_t>(std::llround(mu * n))};
  const std::vector<double> est =
      internal_frequency::DebiasSupportCounts(support, n, p, q);
  ASSERT_EQ(est.size(), 1u);
  EXPECT_NEAR(est[0], f, 1e-12);
}

TEST(DebiasSupportCountsTest, ZeroReportsGiveZeroEstimates) {
  const std::vector<double> est =
      internal_frequency::DebiasSupportCounts({0, 0}, 0, 0.7, 0.2);
  EXPECT_EQ(est, (std::vector<double>{0.0, 0.0}));
}

TEST(SupportEstimateVarianceTest, MatchesBernoulliFormula) {
  const double p = 0.6, q = 0.1, f = 0.2;
  const uint64_t n = 5000;
  const double mu = f * p + (1.0 - f) * q;
  const double expected = mu * (1.0 - mu) / (n * (p - q) * (p - q));
  EXPECT_NEAR(internal_frequency::SupportEstimateVariance(f, n, p, q),
              expected, 1e-15);
  EXPECT_EQ(internal_frequency::SupportEstimateVariance(f, 0, p, q), 0.0);
}

TEST(GrrOracleTest, ProbabilitiesMatchFormulas) {
  const double eps = 1.2;
  const uint32_t k = 5;
  const GrrOracle oracle(eps, k);
  const double e = std::exp(eps);
  EXPECT_NEAR(oracle.p(), e / (e + k - 1.0), 1e-12);
  EXPECT_NEAR(oracle.q(), 1.0 / (e + k - 1.0), 1e-12);
  // p + (k-1) q = 1: the report distribution is a distribution.
  EXPECT_NEAR(oracle.p() + (k - 1) * oracle.q(), 1.0, 1e-12);
}

TEST(GrrOracleTest, SatisfiesLdpRatio) {
  const double eps = 0.9;
  const GrrOracle oracle(eps, 8);
  // Worst ratio is reporting value v when the input was v vs anything else.
  EXPECT_NEAR(oracle.p() / oracle.q(), std::exp(eps), 1e-9);
}

TEST(GrrOracleTest, ReportDistributionMatchesPq) {
  const GrrOracle oracle(1.0, 4);
  Rng rng(1);
  const int trials = 120000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < trials; ++i) {
    const auto report = oracle.Perturb(2, &rng);
    ASSERT_EQ(report.size(), 1u);
    ASSERT_LT(report[0], 4u);
    ++counts[report[0]];
  }
  EXPECT_NEAR(counts[2] / static_cast<double>(trials), oracle.p(), 0.01);
  for (const int v : {0, 1, 3}) {
    EXPECT_NEAR(counts[v] / static_cast<double>(trials), oracle.q(), 0.01);
  }
}

TEST(GrrOracleTest, EndToEndFrequencyEstimationIsUnbiased) {
  const GrrOracle oracle(1.0, 3);
  Rng rng(2);
  // True frequencies 0.5 / 0.3 / 0.2.
  std::vector<uint32_t> values;
  const uint64_t n = 150000;
  for (uint64_t i = 0; i < n; ++i) {
    const double u = rng.Uniform01();
    values.push_back(u < 0.5 ? 0u : (u < 0.8 ? 1u : 2u));
  }
  const std::vector<double> est = EstimateFrequencies(oracle, values, &rng);
  ASSERT_EQ(est.size(), 3u);
  EXPECT_NEAR(est[0], 0.5, 0.03);
  EXPECT_NEAR(est[1], 0.3, 0.03);
  EXPECT_NEAR(est[2], 0.2, 0.03);
  // Raw GRR estimates sum to exactly 1: Σ (c_v/n − q)/(p−q) with Σc_v = n.
  EXPECT_NEAR(est[0] + est[1] + est[2], 1.0, 1e-9);
}

TEST(GrrOracleTest, EmpiricalVarianceMatchesFormula) {
  const GrrOracle oracle(1.0, 4);
  const double f = 0.4;
  const uint64_t n = 2000;
  Rng rng(3);
  RunningStats err;
  for (int rep = 0; rep < 400; ++rep) {
    FrequencyEstimator estimator(&oracle);
    for (uint64_t i = 0; i < n; ++i) {
      estimator.Add(oracle.Perturb(rng.Bernoulli(f) ? 0u : 1u, &rng));
    }
    err.Add(estimator.RawEstimate()[0]);
  }
  const double expected = oracle.EstimateVariance(f, n);
  EXPECT_NEAR(err.SampleVariance(), expected,
              expected * ldp::testing::VarianceRelTolerance(400, 3.0));
}

TEST(GrrOracleTest, BinaryDomainReducesToRandomizedResponse) {
  const double eps = 1.0;
  const GrrOracle oracle(eps, 2);
  const double e = std::exp(eps);
  EXPECT_NEAR(oracle.p(), e / (e + 1.0), 1e-12);  // Warner's classic RR
  EXPECT_NEAR(oracle.q(), 1.0 / (e + 1.0), 1e-12);
}

}  // namespace
}  // namespace ldp
