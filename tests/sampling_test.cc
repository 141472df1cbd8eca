#include "util/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "test_util.h"

namespace ldp {
namespace {

TEST(SampleWithoutReplacementTest, ReturnsDistinctInRange) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint32_t> sample = SampleWithoutReplacement(20, 7, &rng);
    ASSERT_EQ(sample.size(), 7u);
    std::set<uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (const uint32_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(SampleWithoutReplacementTest, FullSampleIsPermutationOfAll) {
  Rng rng(2);
  std::vector<uint32_t> sample = SampleWithoutReplacement(10, 10, &rng);
  std::sort(sample.begin(), sample.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleWithoutReplacementTest, MarginalInclusionIsUniform) {
  // Every index should be included with probability k/n.
  Rng rng(3);
  const uint32_t n = 12, k = 4;
  const int trials = 60000;
  std::vector<int> counts(n, 0);
  for (int t = 0; t < trials; ++t) {
    for (const uint32_t v : SampleWithoutReplacement(n, k, &rng)) ++counts[v];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (uint32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(counts[v], expected, 5.0 * std::sqrt(expected)) << "v=" << v;
  }
}

TEST(SampleWithoutReplacementTest, BothMembershipTestsPickAsFloyd) {
  // Below kScanMaxPicks the sampler scans its picks, above it hashes them:
  // from an equal Rng, both must give Floyd's picks in Floyd's order, as a
  // set-based reference draws them.
  for (const uint32_t k : {1u, 5u, kScanMaxPicks, kScanMaxPicks + 1, 150u}) {
    Rng rng(6), twin(6);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint32_t> expected;
      std::set<uint32_t> taken;
      for (uint32_t j = 200 - k; j < 200; ++j) {
        const auto t = static_cast<uint32_t>(twin.UniformIndex(j + 1));
        const uint32_t pick = taken.insert(t).second ? t : j;
        taken.insert(pick);
        expected.push_back(pick);
      }
      ASSERT_EQ(SampleWithoutReplacement(200, k, &rng), expected) << "k=" << k;
    }
  }
}

TEST(SampleWithoutReplacementTest, SingleElementDomain) {
  Rng rng(4);
  const std::vector<uint32_t> sample = SampleWithoutReplacement(1, 1, &rng);
  ASSERT_EQ(sample.size(), 1u);
  EXPECT_EQ(sample[0], 0u);
}

TEST(ShuffleTest, ProducesPermutation) {
  Rng rng(5);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  Shuffle(&items, &rng);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(ShuffleTest, AllPermutationsOfThreeAppear) {
  Rng rng(6);
  std::map<std::vector<int>, int> counts;
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> items = {0, 1, 2};
    Shuffle(&items, &rng);
    ++counts[items];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_NEAR(count, trials / 6.0, 5.0 * std::sqrt(trials / 6.0));
  }
}

TEST(ShuffleTest, EmptyAndSingletonAreNoOps) {
  Rng rng(7);
  std::vector<int> empty;
  Shuffle(&empty, &rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  Shuffle(&one, &rng);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler sampler({2.0, 6.0, 2.0});
  EXPECT_DOUBLE_EQ(sampler.Probability(0), 0.2);
  EXPECT_DOUBLE_EQ(sampler.Probability(1), 0.6);
  EXPECT_DOUBLE_EQ(sampler.Probability(2), 0.2);
  EXPECT_EQ(sampler.size(), 3u);
}

TEST(AliasSamplerTest, EmpiricalDistributionMatchesWeights) {
  Rng rng(8);
  const std::vector<double> weights = {1.0, 3.0, 0.5, 5.5};
  AliasSampler sampler(weights);
  const int trials = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int t = 0; t < trials; ++t) ++counts[sampler.Sample(&rng)];
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = trials * weights[i] / total_weight;
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected)) << "i=" << i;
  }
}

TEST(AliasSamplerTest, ZeroWeightCategoryNeverSampled) {
  Rng rng(9);
  AliasSampler sampler({1.0, 0.0, 1.0});
  for (int t = 0; t < 10000; ++t) EXPECT_NE(sampler.Sample(&rng), 1u);
}

TEST(AliasSamplerTest, SingleCategory) {
  Rng rng(10);
  AliasSampler sampler({3.0});
  for (int t = 0; t < 100; ++t) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(UniformFromTwoIntervalsTest, CoversBothIntervalsProportionally) {
  Rng rng(11);
  // [-4, -2] has length 2, [1, 2] has length 1: expect 2:1 mass split.
  int left = 0, right = 0;
  const int trials = 90000;
  for (int t = 0; t < trials; ++t) {
    const double x = UniformFromTwoIntervals(-4.0, -2.0, 1.0, 2.0, &rng);
    ASSERT_TRUE((x >= -4.0 && x <= -2.0) || (x >= 1.0 && x <= 2.0));
    (x < 0.0 ? left : right) += 1;
  }
  EXPECT_NEAR(static_cast<double>(left) / trials, 2.0 / 3.0, 0.01);
  EXPECT_NEAR(static_cast<double>(right) / trials, 1.0 / 3.0, 0.01);
}

TEST(UniformFromTwoIntervalsTest, DegenerateFirstInterval) {
  Rng rng(12);
  for (int t = 0; t < 1000; ++t) {
    const double x = UniformFromTwoIntervals(0.0, 0.0, 3.0, 4.0, &rng);
    EXPECT_GE(x, 3.0);
    EXPECT_LE(x, 4.0);
  }
}

TEST(UniformFromTwoIntervalsTest, DegenerateSecondInterval) {
  Rng rng(13);
  for (int t = 0; t < 1000; ++t) {
    const double x = UniformFromTwoIntervals(-2.0, -1.0, 5.0, 5.0, &rng);
    EXPECT_GE(x, -2.0);
    EXPECT_LE(x, -1.0);
  }
}

}  // namespace
}  // namespace ldp
