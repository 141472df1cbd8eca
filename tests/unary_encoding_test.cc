// SUE and OUE (unary-encoding oracles).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "frequency/histogram.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "test_util.h"

namespace ldp {
namespace {

// One of the oracle's two perturbation bodies.
using Sampler = size_t (UnaryEncodingOracle::*)(uint32_t, Rng*, char*) const;

// One report drawn by `sample`, materialized as host-order words.
FrequencyOracle::Report Draw(const UnaryEncodingOracle& oracle,
                             Sampler sample, uint32_t value, Rng* rng) {
  std::string words(4 * oracle.MaxReportSize(), '\0');
  const FrequencyOracle::ReportView view(
      words.data(), (oracle.*sample)(value, rng, words.data()));
  FrequencyOracle::Report report(view.size());
  for (size_t i = 0; i < view.size(); ++i) report[i] = view[i];
  return report;
}

TEST(OueOracleTest, ProbabilitiesMatchFormulas) {
  const double eps = 1.4;
  const OueOracle oracle(eps, 6);
  EXPECT_DOUBLE_EQ(oracle.p(), 0.5);
  EXPECT_NEAR(oracle.q(), 1.0 / (std::exp(eps) + 1.0), 1e-12);
}

TEST(SueOracleTest, ProbabilitiesMatchFormulas) {
  const double eps = 1.4;
  const SueOracle oracle(eps, 6);
  const double e_half = std::exp(eps / 2.0);
  EXPECT_NEAR(oracle.p(), e_half / (e_half + 1.0), 1e-12);
  EXPECT_NEAR(oracle.q(), 1.0 - oracle.p(), 1e-12);
}

TEST(UnaryEncodingTest, PerBitFlipProbabilitiesSatisfyLdp) {
  // The whole-report privacy loss of unary encoding is driven by the single
  // differing bit pair: ratio = p(1−q) / (q(1−p)) must be <= e^ε.
  for (const double eps : {0.5, 1.0, 2.0, 4.0}) {
    const OueOracle oue(eps, 4);
    const SueOracle sue(eps, 4);
    EXPECT_LE(oue.p() * (1.0 - oue.q()) / (oue.q() * (1.0 - oue.p())),
              std::exp(eps) * (1.0 + 1e-9))
        << "OUE eps=" << eps;
    EXPECT_LE(sue.p() * (1.0 - sue.q()) / (sue.q() * (1.0 - sue.p())),
              std::exp(eps) * (1.0 + 1e-9))
        << "SUE eps=" << eps;
  }
}

TEST(UnaryEncodingTest, SueRatioIsExactlyExpEpsilon) {
  // SUE's symmetric choice meets the privacy bound with equality.
  const double eps = 1.3;
  const SueOracle sue(eps, 5);
  EXPECT_NEAR(sue.p() * (1.0 - sue.q()) / (sue.q() * (1.0 - sue.p())),
              std::exp(eps), 1e-9);
}

TEST(UnaryEncodingTest, OueRatioIsExactlyExpEpsilon) {
  const double eps = 1.3;
  const OueOracle oue(eps, 5);
  EXPECT_NEAR(oue.p() * (1.0 - oue.q()) / (oue.q() * (1.0 - oue.p())),
              std::exp(eps), 1e-9);
}

TEST(OueOracleTest, BitInclusionRatesMatchPq) {
  const OueOracle oracle(1.0, 5);
  Rng rng(1);
  const int trials = 100000;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < trials; ++i) {
    for (const uint32_t bit : oracle.Perturb(3, &rng)) {
      ASSERT_LT(bit, 5u);
      ++counts[bit];
    }
  }
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), oracle.p(), 0.01);
  for (const int v : {0, 1, 2, 4}) {
    EXPECT_NEAR(counts[v] / static_cast<double>(trials), oracle.q(), 0.01);
  }
}

TEST(OueOracleTest, ReportBitsAreSortedAndUnique) {
  const OueOracle oracle(0.5, 16);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const auto report = oracle.Perturb(7, &rng);
    for (size_t j = 1; j < report.size(); ++j) {
      EXPECT_LT(report[j - 1], report[j]);
    }
  }
}

TEST(UnaryEncodingTest, PerturbDispatchesOnQ) {
  // Small q (large ε): geometric gap skipping; the dispatch must be
  // stream-identical to PerturbSkip. Large q (small ε): dense per-bit.
  const OueOracle sparse(3.0, 16);  // q ≈ 0.047 <= 0.2
  ASSERT_LE(sparse.q(), UnaryEncodingOracle::kSkipSamplingMaxQ);
  Rng a(42), b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sparse.Perturb(5, &a),
              Draw(sparse, &UnaryEncodingOracle::PerturbSkip, 5, &b));
  }
  const OueOracle dense(1.0, 16);  // q ≈ 0.269 > 0.2
  ASSERT_GT(dense.q(), UnaryEncodingOracle::kSkipSamplingMaxQ);
  Rng c(43), d(43);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dense.Perturb(5, &c),
              Draw(dense, &UnaryEncodingOracle::PerturbPerBit, 5, &d));
  }
}

TEST(UnaryEncodingTest, SkipSamplingReportsAreSortedUniqueAndInDomain) {
  const OueOracle oracle(4.0, 64);
  Rng rng(11);
  std::string words(4 * oracle.MaxReportSize(), '\0');
  for (int i = 0; i < 2000; ++i) {
    const FrequencyOracle::ReportView report(
        words.data(), oracle.PerturbSkip(31, &rng, words.data()));
    for (size_t j = 0; j < report.size(); ++j) {
      ASSERT_LT(report[j], 64u);
      if (j > 0) {
        ASSERT_LT(report[j - 1], report[j]);
      }
    }
    ASSERT_EQ(oracle.Validate(report), nullptr);
  }
}

// Chi-square goodness of fit of a sampler's report distribution against the
// exact per-pattern probabilities Π p/(1−p), q/(1−q). Small domain so every
// one of the 2^d patterns is a cell.
double ReportPatternChiSquare(
    const UnaryEncodingOracle& oracle, uint32_t value, int trials,
    uint64_t seed, Sampler sample) {
  const uint32_t d = oracle.domain_size();
  std::vector<int> counts(1u << d, 0);
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    uint32_t pattern = 0;
    for (const uint32_t bit : Draw(oracle, sample, value, &rng)) {
      pattern |= 1u << bit;
    }
    ++counts[pattern];
  }
  double chi_square = 0.0;
  for (uint32_t pattern = 0; pattern < counts.size(); ++pattern) {
    double probability = 1.0;
    for (uint32_t bit = 0; bit < d; ++bit) {
      const double on = (bit == value) ? oracle.p() : oracle.q();
      probability *= (pattern & (1u << bit)) ? on : 1.0 - on;
    }
    const double expected = probability * trials;
    chi_square += (counts[pattern] - expected) * (counts[pattern] - expected) /
                  expected;
  }
  return chi_square;
}

TEST(UnaryEncodingTest, GeometricSkipMatchesPerBitDistributionChiSquare) {
  // ε = 2 ⇒ q ≈ 0.119: the dispatch uses the skip path, and every pattern
  // cell still gets enough mass for the chi-square approximation. 2^5 − 1 =
  // 31 degrees of freedom; the 99.9th percentile is ≈ 61.1. Both samplers
  // must fit the analytic distribution (seeds are fixed, so this is
  // deterministic).
  const OueOracle oracle(2.0, 5);
  ASSERT_LE(oracle.q(), UnaryEncodingOracle::kSkipSamplingMaxQ);
  const int trials = 200000;
  const double skip_fit = ReportPatternChiSquare(
      oracle, 3, trials, 1234, &UnaryEncodingOracle::PerturbSkip);
  const double per_bit_fit = ReportPatternChiSquare(
      oracle, 3, trials, 5678, &UnaryEncodingOracle::PerturbPerBit);
  EXPECT_LT(skip_fit, 61.1);
  EXPECT_LT(per_bit_fit, 61.1);
}

TEST(UnaryEncodingTest, SkipSamplingMarginalRatesMatchPq) {
  // Large sparse domain — the regime the sublinear sampler exists for.
  const double eps = 4.0;
  const uint32_t d = 256;
  const OueOracle oracle(eps, d);
  Rng rng(12);
  const int trials = 40000;
  std::vector<int> counts(d, 0);
  double total_bits = 0.0;
  for (int i = 0; i < trials; ++i) {
    for (const uint32_t bit :
         Draw(oracle, &UnaryEncodingOracle::PerturbSkip, 7, &rng)) {
      ++counts[bit];
    }
  }
  for (const int c : counts) total_bits += c;
  EXPECT_NEAR(counts[7] / static_cast<double>(trials), oracle.p(), 0.01);
  // Mean inclusion rate over the other d−1 bits.
  const double other_rate = (total_bits - counts[7]) /
                            (static_cast<double>(trials) * (d - 1));
  EXPECT_NEAR(other_rate, oracle.q(), 0.001);
}

class UnaryEndToEndTest
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, UnaryEndToEndTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 4.0),
                       ::testing::Values(2u, 8u, 32u)));

TEST_P(UnaryEndToEndTest, OueFrequencyEstimatesAreUnbiased) {
  const auto [eps, k] = GetParam();
  const OueOracle oracle(eps, k);
  Rng rng(3);
  const uint64_t n = 60000;
  // Skewed truth: value 0 holds 60%, the rest uniform.
  std::vector<uint32_t> values;
  std::vector<double> truth(k, 0.4 / (k - 1));
  truth[0] = 0.6;
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.6)) {
      values.push_back(0);
    } else {
      values.push_back(1 + static_cast<uint32_t>(rng.UniformIndex(k - 1)));
    }
  }
  const std::vector<double> est = EstimateFrequencies(oracle, values, &rng);
  const double tolerance =
      6.0 * std::sqrt(oracle.EstimateVariance(0.6, n)) + 0.01;
  for (uint32_t v = 0; v < k; ++v) {
    EXPECT_NEAR(est[v], truth[v], tolerance) << "v=" << v;
  }
}

TEST(OueVsSueTest, OueHasLowerVarianceAtSmallFrequencies) {
  // The whole point of OUE: at f ≈ 0 its estimate variance
  // 4e^ε/(n(e^ε−1)²) beats SUE's.
  for (const double eps : {0.5, 1.0, 2.0}) {
    const OueOracle oue(eps, 10);
    const SueOracle sue(eps, 10);
    EXPECT_LT(oue.EstimateVariance(0.0, 1000),
              sue.EstimateVariance(0.0, 1000))
        << "eps=" << eps;
  }
}

TEST(OueOracleTest, VarianceAtZeroMatchesPaperFormula) {
  const double eps = 1.0;
  const uint64_t n = 1000;
  const OueOracle oracle(eps, 4);
  const double e = std::exp(eps);
  EXPECT_NEAR(oracle.EstimateVariance(0.0, n),
              4.0 * e / (n * (e - 1.0) * (e - 1.0)), 1e-12);
}

TEST(SueOracleTest, EndToEndEstimatesAreUnbiased) {
  const SueOracle oracle(1.0, 4);
  Rng rng(4);
  std::vector<uint32_t> values;
  const uint64_t n = 80000;
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<uint32_t>(rng.UniformIndex(4)));
  }
  const std::vector<double> est = EstimateFrequencies(oracle, values, &rng);
  for (uint32_t v = 0; v < 4; ++v) {
    EXPECT_NEAR(est[v], 0.25, 0.03) << "v=" << v;
  }
}

}  // namespace
}  // namespace ldp
