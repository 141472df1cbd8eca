// HE and THE (histogram-encoding oracles).

#include "frequency/histogram_encoding.h"

#include <gtest/gtest.h>

#include <cmath>

#include "frequency/histogram.h"
#include "frequency/oue.h"
#include "test_util.h"

namespace ldp {
namespace {

TEST(HeOracleTest, NoiseScaleIsTwoOverEpsilon) {
  EXPECT_DOUBLE_EQ(HeOracle(1.0, 4).noise_scale(), 2.0);
  EXPECT_DOUBLE_EQ(HeOracle(4.0, 4).noise_scale(), 0.5);
}

TEST(HeOracleTest, ReportPacksFullNoisyHistogram) {
  const HeOracle oracle(1.0, 5);
  Rng rng(1);
  const auto report = oracle.Perturb(2, &rng);
  ASSERT_EQ(report.size(), 5u);
  // Unpacking recovers values near the one-hot vector (within noise).
  std::vector<uint64_t> support(oracle.SupportSize(), 0);
  oracle.Accumulate(report, &support);
  const std::vector<double> unpacked = oracle.Estimate(support, 1);
  for (uint32_t v = 0; v < 5; ++v) {
    EXPECT_LT(std::abs(unpacked[v] - (v == 2 ? 1.0 : 0.0)), 40.0);
  }
}

TEST(HeOracleTest, FixedPointRoundTripIsTight) {
  // Packing then unpacking must round-trip to within one quantum.
  const HeOracle oracle(1.0, 3);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto report = oracle.Perturb(0, &rng);
    std::vector<uint64_t> support(oracle.SupportSize(), 0);
    oracle.Accumulate(report, &support);
    for (const double value : oracle.Estimate(support, 1)) {
      // Any unpacked value is a multiple of the quantum within rounding.
      const double quantum = 1.0 / HeOracle::kFixedPointScale;
      const double remainder =
          std::abs(value / quantum - std::llround(value / quantum));
      EXPECT_LT(remainder, 1e-6);
    }
  }
}

TEST(HeOracleTest, EndToEndEstimatesAreUnbiased) {
  const HeOracle oracle(1.0, 4);
  Rng rng(3);
  const uint64_t n = 60000;
  std::vector<uint32_t> values;
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.4) ? 0u : 3u);
  }
  const std::vector<double> est = EstimateFrequencies(oracle, values, &rng);
  const double tolerance = 6.0 * std::sqrt(oracle.EstimateVariance(0.4, n));
  EXPECT_NEAR(est[0], 0.4, tolerance);
  EXPECT_NEAR(est[3], 0.6, tolerance);
  EXPECT_NEAR(est[1], 0.0, tolerance);
}

TEST(HeOracleTest, EmpiricalVarianceMatchesFormula) {
  const HeOracle oracle(2.0, 3);
  const double f = 0.5;
  const uint64_t n = 500;
  Rng rng(4);
  RunningStats estimates;
  for (int rep = 0; rep < 400; ++rep) {
    FrequencyEstimator estimator(&oracle);
    for (uint64_t i = 0; i < n; ++i) {
      estimator.Add(oracle.Perturb(rng.Bernoulli(f) ? 0u : 1u, &rng));
    }
    estimates.Add(estimator.RawEstimate()[0]);
  }
  const double expected = oracle.EstimateVariance(f, n);
  EXPECT_NEAR(estimates.SampleVariance(), expected,
              expected * ldp::testing::VarianceRelTolerance(400, 3.0));
}

TEST(TheOracleTest, OptimalThetaIsInsideItsRange) {
  for (const double eps : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double theta = TheOracle::OptimalTheta(eps);
    EXPECT_GT(theta, 0.5) << "eps=" << eps;
    EXPECT_LT(theta, 1.0) << "eps=" << eps;
  }
}

TEST(TheOracleTest, OptimalThetaBeatsNearbyThetas) {
  const double eps = 1.0;
  const double optimal = TheOracle::OptimalTheta(eps);
  const TheOracle best(eps, 8, optimal);
  for (const double theta : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    const TheOracle swept(eps, 8, theta);
    EXPECT_GE(swept.EstimateVariance(0.0, 1000),
              best.EstimateVariance(0.0, 1000) - 1e-12)
        << "theta=" << theta;
  }
}

TEST(TheOracleTest, SupportProbabilitiesMatchLaplaceTails) {
  const double eps = 1.0;
  const double theta = 0.7;
  const TheOracle oracle(eps, 4, theta);
  const double b = 2.0 / eps;
  // p = Pr[1 + Lap > θ] with θ − 1 < 0.
  EXPECT_NEAR(oracle.p(), 1.0 - 0.5 * std::exp((theta - 1.0) / b), 1e-12);
  // q = Pr[Lap > θ] with θ > 0.
  EXPECT_NEAR(oracle.q(), 0.5 * std::exp(-theta / b), 1e-12);
  EXPECT_GT(oracle.p(), oracle.q());
}

TEST(TheOracleTest, BitRatesMatchPq) {
  const TheOracle oracle(1.0, 5);
  Rng rng(5);
  const int trials = 100000;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < trials; ++i) {
    for (const uint32_t bit : oracle.Perturb(1, &rng)) ++counts[bit];
  }
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), oracle.p(), 0.01);
  for (const int v : {0, 2, 3, 4}) {
    EXPECT_NEAR(counts[v] / static_cast<double>(trials), oracle.q(), 0.01);
  }
}

TEST(TheOracleTest, EndToEndEstimatesAreUnbiased) {
  const TheOracle oracle(1.0, 6);
  Rng rng(6);
  const uint64_t n = 80000;
  std::vector<uint32_t> values;
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.7) ? 2u : 5u);
  }
  const std::vector<double> est = EstimateFrequencies(oracle, values, &rng);
  const double tolerance =
      6.0 * std::sqrt(oracle.EstimateVariance(0.7, n)) + 0.005;
  EXPECT_NEAR(est[2], 0.7, tolerance);
  EXPECT_NEAR(est[5], 0.3, tolerance);
  EXPECT_NEAR(est[0], 0.0, tolerance);
}

TEST(TheOracleTest, TheBeatsHeOnVariance) {
  // The thresholding step discards the Laplace tails, so THE's estimate
  // variance at small frequencies beats HE's (Wang et al.'s observation).
  for (const double eps : {0.5, 1.0, 2.0}) {
    const HeOracle he(eps, 8);
    const TheOracle the(eps, 8);
    EXPECT_LT(the.EstimateVariance(0.0, 1000), he.EstimateVariance(0.0, 1000))
        << "eps=" << eps;
  }
}

TEST(HistogramEncodingFactoryTest, CreatesBothKinds) {
  auto he = MakeFrequencyOracle(FrequencyOracleKind::kHe, 1.0, 4);
  auto the = MakeFrequencyOracle(FrequencyOracleKind::kThe, 1.0, 4);
  ASSERT_TRUE(he.ok());
  ASSERT_TRUE(the.ok());
  EXPECT_STREQ(he.value()->name(), "HE");
  EXPECT_STREQ(the.value()->name(), "THE");
}

TEST(HistogramEncodingTest, OueStillBeatsBothAtSmallFrequencies) {
  // Context for the paper's choice of OUE in Section IV-C.
  const double eps = 1.0;
  const OueOracle oue(eps, 8);
  const HeOracle he(eps, 8);
  const TheOracle the(eps, 8);
  EXPECT_LT(oue.EstimateVariance(0.0, 1000), he.EstimateVariance(0.0, 1000));
  EXPECT_LT(oue.EstimateVariance(0.0, 1000), the.EstimateVariance(0.0, 1000));
}

}  // namespace
}  // namespace ldp
