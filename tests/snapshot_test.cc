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
  EXPECT_EQ(config.value().grid_exponent, collector.numeric_grid_exponent());
}

TEST(SnapshotTest, MergeIsCommutative) {
  const MixedTupleCollector collector = MakeCollector();
  const MixedAggregator a = FillAggregator(collector, 300, 21);
  const MixedAggregator b = FillAggregator(collector, 200, 22);
  MixedAggregator ab = a;
  ASSERT_TRUE(ab.Merge(b).ok());
  MixedAggregator ba = b;
  ASSERT_TRUE(ba.Merge(a).ok());
  // Integer addition is commutative, so the merged states match bit for bit.
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

  // Every sum is an integer, numeric sums included: exactly associative.
  ExpectSameState(left, right);
  EXPECT_EQ(EncodeAggregatorSnapshot(left), EncodeAggregatorSnapshot(right));
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

TEST(SnapshotTest, RefusesVersionOneByNumber) {
  // A version-1 section (f64 sums and supports) is refused before any of
  // its state is read, naming the version.
  const MixedTupleCollector collector = MakeCollector();
  std::string v1 = EncodeAggregatorSnapshot(FillAggregator(collector, 4, 55));
  v1[4] = 1;
  v1[5] = 0;
  auto decoded = DecodeAggregatorSnapshot(v1, &collector);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(),
            "unsupported aggregator snapshot version 1");
}

TEST(SnapshotTest, RefusesAnotherGridExponent) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes =
      EncodeAggregatorSnapshot(FillAggregator(collector, 4, 56));
  // u32 magic, u16 version, u8 ×2, u64 hash, f64 ε, u32 d, u32 k, u64 n.
  const size_t exponent_at = 4 + 2 + 2 + 8 + 8 + 4 + 4 + 8;
  ASSERT_EQ(static_cast<int>(bytes[exponent_at]),
            collector.numeric_grid_exponent());
  bytes[exponent_at] = static_cast<char>(bytes[exponent_at] + 1);
  EXPECT_FALSE(DecodeAggregatorSnapshot(bytes, &collector).ok());
}

TEST(FromPartsTest, ValidatesShapesAndValues) {
  const MixedTupleCollector collector = MakeCollector();
  const uint32_t d = collector.dimension();
  std::vector<uint64_t> counts(d, 5);
  std::vector<NumericSum> sums(d, 0);
  std::vector<std::vector<uint64_t>> supports(d);
  supports[1].assign(4, 1);
  supports[3].assign(6, 1);

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
  bad_supports[1].push_back(0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Support present at a numeric position.
  bad_supports = supports;
  bad_supports[0].assign(2, 0);
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, counts, sums,
                                          bad_supports)
                   .ok());
  // Attribute count exceeding the total.
  auto bad_counts = counts;
  bad_counts[2] = 11;
  EXPECT_FALSE(MixedAggregator::FromParts(&collector, 10, bad_counts, sums,
                                          supports)
                   .ok());
}

TEST(FromPartsTest, RefusesStateNoRunOfReportsReaches) {
  const MixedTupleCollector collector = MakeCollector();
  const uint32_t d = collector.dimension();
  const NumericSum kUnit = NumericSum{1} << 62;  // one report's largest move
  std::vector<uint64_t> counts(d, 5);
  std::vector<NumericSum> sums(d, 0);
  sums[0] = 5 * kUnit;
  sums[2] = -5 * kUnit;
  std::vector<std::vector<uint64_t>> supports(d);
  supports[1].assign(4, 5);
  supports[3].assign(6, 5);
  auto from = [&](uint64_t n, std::vector<uint64_t> c,
                  std::vector<NumericSum> s,
                  std::vector<std::vector<uint64_t>> v) {
    return MixedAggregator::FromParts(&collector, n, std::move(c),
                                      std::move(s), std::move(v))
        .status();
  };
  // At every bound: accepted.
  EXPECT_TRUE(from(10, counts, sums, supports).ok());
  // A sum past n_j·2^62, either sign (and so past num_reports·2^62 too).
  auto bad_sums = sums;
  bad_sums[0] += 1;
  EXPECT_FALSE(from(10, counts, bad_sums, supports).ok());
  bad_sums = sums;
  bad_sums[2] -= 1;
  EXPECT_FALSE(from(10, counts, bad_sums, supports).ok());
  bad_sums = sums;
  bad_sums[0] = 11 * kUnit;
  EXPECT_FALSE(from(10, counts, bad_sums, supports).ok());
  // The most negative sum must not wrap into range.
  bad_sums[0] =
      static_cast<NumericSum>(static_cast<unsigned __int128>(1) << 127);
  EXPECT_FALSE(from(10, counts, bad_sums, supports).ok());
  // A sum at a categorical position.
  bad_sums = sums;
  bad_sums[1] = 1;
  EXPECT_FALSE(from(10, counts, bad_sums, supports).ok());
  // A count above n_j.
  auto bad_supports = supports;
  bad_supports[3][5] = 6;
  EXPECT_FALSE(from(10, counts, sums, bad_supports).ok());
  // An attribute count above num_reports.
  auto bad_counts = counts;
  bad_counts[1] = 11;
  EXPECT_FALSE(from(10, bad_counts, sums, supports).ok());
}

Result<MixedTupleCollector> HeCollector(uint32_t domain_size) {
  return MixedTupleCollector::Create({MixedAttribute::Categorical(domain_size)},
                                     1.0, MechanismKind::kHybrid,
                                     FrequencyOracleKind::kHe);
}

TEST(FromPartsTest, HeWordSumsAreBoundedByTheirWords) {
  // HE keeps each value's low and high 16-bit word halves in two counts,
  // and each grows by at most 0xFFFF per report.
  auto collector = HeCollector(3);
  ASSERT_TRUE(collector.ok());
  const uint64_t max = 4 * uint64_t{0xFFFF};
  std::vector<std::vector<uint64_t>> supports = {{max, max, 0, 0, max, max}};
  EXPECT_TRUE(MixedAggregator::FromParts(&collector.value(), 4, {4}, {0},
                                         supports)
                  .ok());
  for (const size_t slot : {size_t{2}, size_t{3}}) {
    auto bad = supports;
    bad[0][slot] = max + 1;
    EXPECT_FALSE(
        MixedAggregator::FromParts(&collector.value(), 4, {4}, {0}, bad).ok())
        << "slot " << slot;
  }
  // One count per value is the wrong shape.
  EXPECT_FALSE(MixedAggregator::FromParts(&collector.value(), 4, {4}, {0},
                                          {{max, 0, max}})
                   .ok());
}

TEST(FromPartsTest, HeSupportsHoldAnEpochPastTwoToTheThirtyThreeReports) {
  // A single u64 word sum would overflow after ~2^33 reports of words near
  // the offset 2^31; the two half sums hold 2^48. Two halves of an epoch of
  // 2^34 + 6 reports, each value reported as exactly 1.0 for value 0 and
  // 0.0 for value 1, merge and estimate exactly.
  auto collector = HeCollector(2);
  ASSERT_TRUE(collector.ok());
  const uint64_t one = uint64_t{2048 + 1} << 20;  // (1 + offset)·scale
  const uint64_t zero = uint64_t{2048} << 20;
  const uint64_t n = (uint64_t{1} << 33) + 3;
  const std::vector<std::vector<uint64_t>> supports = {
      {n * (one & 0xFFFF), n * (one >> 16), n * (zero & 0xFFFF),
       n * (zero >> 16)}};
  auto half = MixedAggregator::FromParts(&collector.value(), n, {n}, {0},
                                         supports);
  ASSERT_TRUE(half.ok());
  MixedAggregator epoch = half.value();
  ASSERT_TRUE(epoch.Merge(half.value()).ok());
  EXPECT_EQ(epoch.num_reports(), 2 * n);
  auto frequencies = epoch.EstimateFrequencies(0);
  ASSERT_TRUE(frequencies.ok());
  EXPECT_EQ(frequencies.value(), (std::vector<double>{1.0, 0.0}));
  // The snapshot round trip keeps the state.
  auto decoded =
      DecodeAggregatorSnapshot(EncodeAggregatorSnapshot(epoch),
                               &collector.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().supports(), epoch.supports());
}

TEST(MergeTest, RefusedOverflowChangesNothing) {
  const MixedTupleCollector collector = MakeCollector();
  const uint32_t d = collector.dimension();
  const uint64_t kHuge = ~uint64_t{0} - 2;
  std::vector<std::vector<uint64_t>> supports(d);
  supports[1].assign(4, 0);
  supports[3].assign(6, 0);
  auto huge = MixedAggregator::FromParts(
      &collector, kHuge, std::vector<uint64_t>(d, 0),
      std::vector<NumericSum>(d, 0), supports);
  ASSERT_TRUE(huge.ok());
  const MixedAggregator small = FillAggregator(collector, 5, 57);
  // num_reports would wrap: refused, and neither side moves.
  MixedAggregator target = huge.value();
  const std::string before = EncodeAggregatorSnapshot(target);
  const Status merged = target.Merge(small);
  EXPECT_EQ(merged.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(EncodeAggregatorSnapshot(target), before);
  MixedAggregator other = small;
  const std::string other_before = EncodeAggregatorSnapshot(other);
  EXPECT_FALSE(other.Merge(huge.value()).ok());
  EXPECT_EQ(EncodeAggregatorSnapshot(other), other_before);

  // A support count that would wrap on its own (an HE half sum at the edge
  // of its bound, with num_reports still in range).
  auto he = HeCollector(2);
  ASSERT_TRUE(he.ok());
  const uint64_t n = uint64_t{1} << 50;
  auto full = MixedAggregator::FromParts(&he.value(), n, {n}, {0},
                                         {{~uint64_t{0}, 0, 0, 0}});
  ASSERT_TRUE(full.ok());
  MixedAggregator twice = full.value();
  const std::string twice_before = EncodeAggregatorSnapshot(twice);
  EXPECT_EQ(twice.Merge(full.value()).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(EncodeAggregatorSnapshot(twice), twice_before);
}

}  // namespace
}  // namespace ldp::stream
