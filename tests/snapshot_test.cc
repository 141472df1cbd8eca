#include "stream/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stream/report_stream.h"
#include "util/random.h"
#include "wire_report.h"

namespace ldp::stream {
namespace {

MixedTupleCollector MakeCollector(double epsilon = 6.0) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      epsilon);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

MixedTuple SampleTuple() {
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.5);
  tuple[1] = AttributeValue::Categorical(1);
  tuple[2] = AttributeValue::Numeric(-0.25);
  tuple[3] = AttributeValue::Categorical(3);
  return tuple;
}

MixedAggregator FillAggregator(const MixedTupleCollector& collector,
                               int reports, uint64_t seed) {
  MixedAggregator aggregator(&collector);
  Rng rng(seed);
  for (int i = 0; i < reports; ++i) {
    testing::PerturbAndFold(collector, SampleTuple(), &rng, &aggregator);
  }
  return aggregator;
}

void ExpectSameState(const MixedAggregator& a, const MixedAggregator& b) {
  EXPECT_EQ(a.num_reports(), b.num_reports());
  EXPECT_EQ(a.attribute_report_counts(), b.attribute_report_counts());
  EXPECT_EQ(a.numeric_sums(), b.numeric_sums());
  EXPECT_EQ(a.supports(), b.supports());
}

TEST(SnapshotTest, RoundTripsExactly) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator original = FillAggregator(collector, 500, 11);
  const std::string bytes = EncodeAggregatorSnapshot(original);
  EXPECT_TRUE(LooksLikeSnapshot(bytes));
  auto decoded = DecodeAggregatorSnapshot(bytes, &collector);
  ASSERT_TRUE(decoded.ok());
  ExpectSameState(original, decoded.value());
  // Estimates are a pure function of the state: bit-identical too.
  EXPECT_EQ(original.EstimateMean(0).value(),
            decoded.value().EstimateMean(0).value());
  EXPECT_EQ(original.EstimateFrequencies(1).value(),
            decoded.value().EstimateFrequencies(1).value());
}

TEST(SnapshotTest, ConfigRoundTrips) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 10, 1));
  auto config = DecodeSnapshotConfig(bytes);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().mechanism, collector.numeric_kind());
  EXPECT_EQ(config.value().oracle, collector.categorical_kind());
  EXPECT_EQ(config.value().epsilon, collector.epsilon());
  EXPECT_EQ(config.value().dimension, collector.dimension());
  EXPECT_EQ(config.value().k, collector.k());
  EXPECT_EQ(config.value().schema_hash, CollectorSchemaHash(collector));
}

TEST(SnapshotTest, MergeIsCommutative) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 300, 21);
  const MixedAggregator b = FillAggregator(collector, 200, 22);
  MixedAggregator ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  MixedAggregator ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  // Double addition is commutative, so the merged states match bit for bit.
  ExpectSameState(ab, ba);
}

TEST(SnapshotTest, MergeIsAssociativeOnEstimates) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 100, 31);
  const MixedAggregator b = FillAggregator(collector, 150, 32);
  const MixedAggregator c = FillAggregator(collector, 200, 33);

  MixedAggregator left = a;   // (a + b) + c
  ASSERT_TRUE(left.Merge(b).ok());
  ASSERT_TRUE(left.Merge(c).ok());
  MixedAggregator bc = b;     // a + (b + c)
  ASSERT_TRUE(bc.Merge(c).ok());
  MixedAggregator right = a;
  ASSERT_TRUE(right.Merge(bc).ok());

  // Counts and integer-valued supports associate exactly; floating-point
  // numeric sums associate to within rounding.
  EXPECT_EQ(left.num_reports(), right.num_reports());
  EXPECT_EQ(left.attribute_report_counts(), right.attribute_report_counts());
  EXPECT_EQ(left.supports(), right.supports());
  for (size_t j = 0; j < left.numeric_sums().size(); ++j) {
    EXPECT_NEAR(left.numeric_sums()[j], right.numeric_sums()[j], 1e-9);
  }
}

TEST(SnapshotTest, SnapshotMergeMatchesDirectMerge) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 250, 41);
  const MixedAggregator b = FillAggregator(collector, 350, 42);

  MixedAggregator direct = a;
  ASSERT_TRUE(direct.Merge(b).ok());

  auto a2 = DecodeAggregatorSnapshot(EncodeAggregatorSnapshot(a), &collector);
  auto b2 = DecodeAggregatorSnapshot(EncodeAggregatorSnapshot(b), &collector);
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b2.ok());
  MixedAggregator via_snapshots = std::move(a2).value();
  ASSERT_TRUE(via_snapshots.Merge(b2.value()).ok());
  ExpectSameState(direct, via_snapshots);
}

TEST(SnapshotTest, RejectsTruncationEverywhere) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 51));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodeAggregatorSnapshot(bytes.substr(0, cut), &collector).ok())
        << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 52));
  bytes.push_back('x');
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &collector).ok());
}

TEST(SnapshotTest, RejectsForeignCollector) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  const std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 40, 53));
  // Different ε.
  const MixedTupleCollector other_epsilon = MakeCollector(5.0);
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &other_epsilon).ok());
  // Different schema (domain size changed).
  auto other_schema = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      6.0);
  ASSERT_TRUE(other_schema.ok());
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &other_schema.value()).ok());
}

TEST(SnapshotTest, RejectsBadMagicAndVersion) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string good =
      EncodeAggregatorSnapshot(FillAggregator(collector, 4, 54));
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeAggregatorSnapshot(bad_magic, &collector).ok());
  EXPECT_FALSE(LooksLikeSnapshot(bad_magic));
  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_FALSE(DecodeAggregatorSnapshot(bad_version, &collector).ok());
}

TEST(FromPartsTest, ValidatesShapesAndValues) {
  const MixedTupleCollector collector = MakeCollector();
  const uint32_t d = collector.dimension();
  std::vector<uint64_t> counts(d, 5);
  std::vector<double> sums(d, 0.0);
  std::vector<std::vector<double>> supports(d);
  supports[1].assign(4, 1.0);
  supports[3].assign(6, 1.0);

  EXPECT_TRUE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                         supports)
                  .ok());
  // Wrong vector lengths.
  EXPECT_FALSE(MixedAggregator::FromParts(
                   &collector, 10, std::vector<uint64_t>(d - 1, 0), sums,
                   supports)
                   .ok());
  // Support size not matching the domain.
  auto bad_supports = supports;
  bad_supports[1].push_back(0.0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Support present at a numeric position.
  bad_supports = supports;
  bad_supports[0].assign(2, 0.0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Attribute count exceeding the total.
  auto bad_counts = counts;
  bad_counts[2] = 11;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, bad_counts, sums,
                                          supports)
                   .ok());
  // Non-finite sums.
  auto bad_sums = sums;
  bad_sums[0] = std::nan("");
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, bad_sums,
                                          supports)
                   .ok());
}

}  // namespace
}  // namespace ldp::stream
