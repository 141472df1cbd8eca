#include "core/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/random.h"

namespace ldp {
namespace {

MixedTupleCollector MakeMixedCollector() {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      6.0);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

// Algorithm 4 on the wire: an all-numeric schema's reports are mixed
// reports whose entries are all numeric (d = 6, k = 2).
MixedTupleCollector MakeNumericCollector() {
  auto collector = MixedTupleCollector::Create(
      std::vector<MixedAttribute>(6, MixedAttribute::Numeric()), 6.0);
  EXPECT_TRUE(collector.ok());
  EXPECT_EQ(collector.value().k(), 2u);
  return std::move(collector).value();
}

MixedTuple NumericTuple(const std::vector<double>& values) {
  MixedTuple tuple;
  for (const double value : values) {
    tuple.push_back(AttributeValue::Numeric(value));
  }
  return tuple;
}

// A hand-built all-numeric report, one entry per (attribute, value) pair.
MixedReport NumericReport(
    const std::vector<std::pair<uint32_t, double>>& entries) {
  MixedReport report;
  for (const auto& [attribute, value] : entries) {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.numeric_value = value;
    report.push_back(entry);
  }
  return report;
}

TEST(SampledNumericWireTest, RoundTripsRealReports) {
  const MixedTupleCollector collector = MakeNumericCollector();
  Rng rng(1);
  const MixedTuple tuple = NumericTuple({0.1, -0.5, 0.9, 0.0, -1.0, 1.0});
  for (int i = 0; i < 200; ++i) {
    const MixedReport report = collector.Perturb(tuple, &rng);
    const std::string bytes = EncodeMixedReport(report, collector);
    // u16 count, then u32 attribute + u8 kind + f64 value per entry.
    EXPECT_EQ(bytes.size(), 2u + 13u * collector.k());
    auto decoded = DecodeMixedReport(bytes, collector);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), report.size());
    for (size_t j = 0; j < report.size(); ++j) {
      EXPECT_EQ(decoded.value()[j].attribute, report[j].attribute);
      EXPECT_EQ(decoded.value()[j].numeric_value, report[j].numeric_value);
      EXPECT_TRUE(decoded.value()[j].categorical_report.empty());
    }
  }
}

TEST(SampledNumericWireTest, RejectsTruncation) {
  const MixedTupleCollector collector = MakeNumericCollector();
  Rng rng(2);
  const std::string bytes = EncodeMixedReport(
      collector.Perturb(NumericTuple({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}), &rng),
      collector);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeMixedReport(bytes.substr(0, cut), collector).ok())
        << "cut=" << cut;
  }
}

TEST(SampledNumericWireTest, RejectsTrailingBytes) {
  const MixedTupleCollector collector = MakeNumericCollector();
  Rng rng(3);
  std::string bytes = EncodeMixedReport(
      collector.Perturb(NumericTuple({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}), &rng),
      collector);
  bytes.push_back('x');
  EXPECT_FALSE(DecodeMixedReport(bytes, collector).ok());
}

TEST(SampledNumericWireTest, RejectsWrongEntryCount) {
  const MixedTupleCollector collector = MakeNumericCollector();
  EXPECT_FALSE(DecodeMixedReport(
                   EncodeMixedReport(NumericReport({{0, 0.5}}), collector),
                   collector)
                   .ok());
}

TEST(SampledNumericWireTest, RejectsOutOfRangeAttributeAndValue) {
  const MixedTupleCollector collector = MakeNumericCollector();
  for (const MixedReport& bad :
       {NumericReport({{0, 0.5}, {99, 0.5}}),
        NumericReport({{0, 0.5}, {1, 1e9}}),
        NumericReport({{0, 0.5}, {1, std::nan("")}})}) {
    EXPECT_FALSE(
        DecodeMixedReport(EncodeMixedReport(bad, collector), collector).ok());
  }
}

TEST(SampledNumericWireTest, RejectsDuplicateAttributes) {
  const MixedTupleCollector collector = MakeNumericCollector();
  EXPECT_FALSE(DecodeMixedReport(
                   EncodeMixedReport(NumericReport({{3, 0.5}, {3, -0.5}}),
                                     collector),
                   collector)
                   .ok());
}

TEST(MixedWireTest, RoundTripsRealReports) {
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(4);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.9);
  tuple[3] = AttributeValue::Categorical(5);
  for (int i = 0; i < 300; ++i) {
    const MixedReport report = collector.Perturb(tuple, &rng);
    auto decoded = DecodeMixedReport(EncodeMixedReport(report, collector),
                                     collector);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().size(), report.size());
    for (size_t j = 0; j < report.size(); ++j) {
      EXPECT_EQ(decoded.value()[j].attribute, report[j].attribute);
      EXPECT_DOUBLE_EQ(decoded.value()[j].numeric_value,
                       report[j].numeric_value);
      EXPECT_EQ(decoded.value()[j].categorical_report,
                report[j].categorical_report);
    }
  }
}

TEST(MixedWireTest, RoundTripsEmptyCategoricalReports) {
  // An OUE report with no set bits must survive the round trip as
  // categorical, not be mistaken for a numeric entry.
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedReport report;
  MixedReportEntry numeric_entry;
  numeric_entry.attribute = 0;
  numeric_entry.numeric_value = 0.0;  // ambiguous without schema tagging
  MixedReportEntry empty_categorical;
  empty_categorical.attribute = 1;
  report.push_back(numeric_entry);
  report.push_back(empty_categorical);
  auto decoded =
      DecodeMixedReport(EncodeMixedReport(report, collector), collector);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value()[1].categorical_report.empty());
}

TEST(MixedWireTest, RejectsTruncationEverywhere) {
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(5);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(1);
  tuple[3] = AttributeValue::Categorical(2);
  const std::string bytes =
      EncodeMixedReport(collector.Perturb(tuple, &rng), collector);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeMixedReport(bytes.substr(0, cut), collector).ok());
  }
}

TEST(MixedWireTest, RejectsKindSchemaMismatch) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // Hand-craft: numeric entry pointing at categorical attribute 1.
  MixedReport bad;
  MixedReportEntry entry;
  entry.attribute = 1;  // categorical in the schema
  entry.numeric_value = 0.25;
  bad.push_back(entry);
  MixedReportEntry other;
  other.attribute = 0;
  bad.push_back(other);
  // Encode with a lying schema by building bytes via a collector whose
  // attribute 1 is numeric — simplest: flip the entries' attributes.
  const std::string bytes = EncodeMixedReport(bad, collector);
  // EncodeMixedReport consults the schema, so it writes entry 1 as
  // categorical; craft the mismatch manually instead.
  std::string crafted;
  crafted.push_back(2);  // count lo
  crafted.push_back(0);  // count hi
  // entry: attribute 1 (categorical) tagged numeric
  crafted.append(std::string("\x01\x00\x00\x00", 4));
  crafted.push_back(0);  // kNumericEntry
  crafted.append(8, '\0');
  // entry: attribute 0 (numeric) tagged categorical
  crafted.append(std::string(4, '\0'));
  crafted.push_back(1);  // kCategoricalEntry
  crafted.push_back(0);
  crafted.push_back(0);
  EXPECT_FALSE(DecodeMixedReport(crafted, collector).ok());
  (void)bytes;
}

TEST(MixedWireTest, RejectsUnknownEntryKind) {
  const MixedTupleCollector collector = MakeMixedCollector();
  std::string crafted;
  crafted.push_back(2);
  crafted.push_back(0);
  crafted.append(std::string(4, '\0'));  // attribute 0
  crafted.push_back(7);                  // bogus kind
  EXPECT_FALSE(DecodeMixedReport(crafted, collector).ok());
}

TEST(MixedWireTest, RejectsOutOfRangeAttribute) {
  const MixedTupleCollector collector = MakeMixedCollector();
  std::string crafted;
  crafted.push_back(2);
  crafted.push_back(0);
  crafted.append(std::string("\x63\x00\x00\x00", 4));  // attribute 99
  crafted.push_back(0);                                // numeric kind
  crafted.append(8, '\0');
  EXPECT_FALSE(DecodeMixedReport(crafted, collector).ok());
}

TEST(MixedWireTest, RejectsOversizedEntryCount) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // entry_count of 0xffff: far more entries than k; must be rejected before
  // any payload is trusted (and without attempting a 64k-entry reserve).
  std::string crafted;
  crafted.push_back(static_cast<char>(0xff));
  crafted.push_back(static_cast<char>(0xff));
  EXPECT_FALSE(DecodeMixedReport(crafted, collector).ok());
}

TEST(MixedWireTest, RejectsOversizedCategoricalPayload) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // Categorical entry for attribute 1 (domain 4) claiming 0xffff payload
  // words: the unary-report validation must reject it even if the bytes
  // were all present.
  std::string crafted;
  crafted.push_back(2);
  crafted.push_back(0);
  crafted.append(std::string("\x01\x00\x00\x00", 4));  // attribute 1
  crafted.push_back(1);                                // categorical kind
  crafted.push_back(static_cast<char>(0xff));
  crafted.push_back(static_cast<char>(0xff));
  EXPECT_FALSE(DecodeMixedReport(crafted, collector).ok());
}

TEST(MixedWireTest, RejectsCategoricalPayloadOutsideTheDomain) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // A "set bit" index of 9 in a domain of 4: without validation the
  // server-side Fold would write out of bounds.
  MixedReport report;
  MixedReportEntry entry;
  entry.attribute = 1;
  entry.categorical_report = {9};
  report.push_back(entry);
  MixedReportEntry numeric_entry;
  numeric_entry.attribute = 0;
  report.push_back(numeric_entry);
  EXPECT_FALSE(
      DecodeMixedReport(EncodeMixedReport(report, collector), collector)
          .ok());
  // Duplicate bits would double-count support; also rejected.
  report[0].categorical_report = {2, 2};
  EXPECT_FALSE(
      DecodeMixedReport(EncodeMixedReport(report, collector), collector)
          .ok());
  // In-range strictly increasing bits pass.
  report[0].categorical_report = {1, 3};
  EXPECT_TRUE(
      DecodeMixedReport(EncodeMixedReport(report, collector), collector)
          .ok());
}

TEST(MixedWireTest, RejectsOutOfBoundNumericValue) {
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedReport report;
  MixedReportEntry entry;
  entry.attribute = 0;
  entry.numeric_value = 1e12;  // far beyond (d/k) * OutputBound for HM
  report.push_back(entry);
  MixedReportEntry other;
  other.attribute = 2;
  report.push_back(other);
  EXPECT_FALSE(
      DecodeMixedReport(EncodeMixedReport(report, collector), collector)
          .ok());
}

// The accept-set tests run on every oracle at k = 1 (ε = 4) and at k = 2
// (ε = 6), over the 4-attribute mixed schema.
std::vector<MixedTupleCollector> EveryOracleAtKOneAndTwo() {
  std::vector<MixedTupleCollector> collectors;
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kGrr, FrequencyOracleKind::kSue,
        FrequencyOracleKind::kOue, FrequencyOracleKind::kOlh,
        FrequencyOracleKind::kHe, FrequencyOracleKind::kThe}) {
    for (const double epsilon : {4.0, 6.0}) {
      auto collector = MixedTupleCollector::Create(
          {MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
           MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
          epsilon, MechanismKind::kHybrid, oracle);
      EXPECT_TRUE(collector.ok());
      EXPECT_EQ(collector.value().k(), epsilon < 5.0 ? 1u : 2u);
      collectors.push_back(std::move(collector).value());
    }
  }
  return collectors;
}

std::string CaseName(const MixedTupleCollector& collector) {
  return std::string(FrequencyOracleKindToString(
             collector.categorical_kind())) +
         " k=" + std::to_string(collector.k());
}

MixedTuple DecoderTuple() {
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.9);
  tuple[3] = AttributeValue::Categorical(5);
  return tuple;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Bit-for-bit equality of two aggregates (doubles compared as bytes, so a
// -0.0 or NaN difference cannot hide).
void ExpectSameBits(const MixedAggregator& actual,
                    const MixedAggregator& expected, const std::string& where) {
  EXPECT_EQ(actual.num_reports(), expected.num_reports()) << where;
  EXPECT_EQ(actual.attribute_report_counts(),
            expected.attribute_report_counts())
      << where;
  EXPECT_TRUE(SameBits(actual.numeric_sums(), expected.numeric_sums()))
      << where;
  for (size_t j = 0; j < expected.supports().size(); ++j) {
    EXPECT_TRUE(SameBits(actual.supports()[j], expected.supports()[j]))
        << where << " attribute " << j;
  }
}

TEST(MixedFrameDecoderTest, StreamsExactlyWhatMaterializingDecodeReturns) {
  for (const MixedTupleCollector& collector : EveryOracleAtKOneAndTwo()) {
    const std::string name = CaseName(collector);
    MixedFrameDecoder decoder(&collector);
    MixedAggregator folded(&collector);
    MixedAggregator added(&collector);
    Rng rng(7);
    const MixedTuple tuple = DecoderTuple();
    for (int i = 0; i < 200; ++i) {
      const std::string bytes =
          EncodeMixedReport(collector.Perturb(tuple, &rng), collector);
      auto materialized = DecodeMixedReport(bytes, collector);
      ASSERT_TRUE(materialized.ok()) << name;
      ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr) << name;
      const std::vector<MixedEntryView>& views = decoder.entries();
      ASSERT_EQ(views.size(), materialized.value().size()) << name;
      for (size_t j = 0; j < views.size(); ++j) {
        const MixedReportEntry& entry = materialized.value()[j];
        EXPECT_EQ(views[j].attribute, entry.attribute) << name;
        EXPECT_EQ(views[j].oracle, collector.oracle_for(entry.attribute))
            << name;
        if (views[j].oracle == nullptr) {
          EXPECT_EQ(views[j].numeric_value, entry.numeric_value) << name;
        } else {
          ASSERT_EQ(views[j].payload.size(), entry.categorical_report.size())
              << name;
          for (size_t p = 0; p < views[j].payload.size(); ++p) {
            EXPECT_EQ(views[j].payload[p], entry.categorical_report[p])
                << name;
          }
        }
      }
      ASSERT_EQ(decoder.DecodeInto(bytes.data(), bytes.size(), &folded),
                nullptr)
          << name;
      added.Add(materialized.value());
    }
    ExpectSameBits(folded, added, name);
  }
}

TEST(MixedFrameDecoderTest, MutatedFramesGetOneVerdictAndFoldAllOrNothing) {
  // One accept set: for every truncation, every single-byte change of a
  // valid frame and a duplicate-attribute frame, a ShardIngester that fails
  // on its first rejection and DecodeMixedReport return the same verdict
  // and the same reason. A rejected frame leaves the aggregate untouched,
  // even when it fails on its last entry; an accepted one folds to the same
  // bits as Add of the materialized report.
  for (const MixedTupleCollector& collector : EveryOracleAtKOneAndTwo()) {
    const std::string name = CaseName(collector);
    const std::string header =
        stream::EncodeStreamHeader(stream::MakeMixedStreamHeader(collector));
    auto frame_of = [](const std::string& payload) {
      std::string frame;
      internal_wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
      return frame + payload;
    };

    // Valid frames holding a numeric and a categorical entry (at k = 1 they
    // are different frames).
    std::vector<std::string> good;
    Rng rng(8);
    bool numeric_seen = false, categorical_seen = false;
    while (!numeric_seen || !categorical_seen) {
      const MixedReport report = collector.Perturb(DecoderTuple(), &rng);
      bool has_numeric = false, has_categorical = false;
      for (const MixedReportEntry& entry : report) {
        (collector.oracle_for(entry.attribute) == nullptr ? has_numeric
                                                          : has_categorical) =
            true;
      }
      if ((has_numeric && !numeric_seen) ||
          (has_categorical && !categorical_seen)) {
        good.push_back(EncodeMixedReport(report, collector));
        numeric_seen |= has_numeric;
        categorical_seen |= has_categorical;
      }
    }
    const std::string& first = good.front();
    const MixedReport first_report =
        DecodeMixedReport(first, collector).value();

    // One long-lived ingester also takes every mutated frame in turn: its
    // decoder must stay exact after any number of rejections.
    stream::ShardIngester tolerant(&collector);
    ASSERT_TRUE(tolerant.Feed(header).ok());
    MixedAggregator tolerant_expected(&collector);

    size_t checked = 0, accepted = 0;
    auto check = [&](const std::string& mutated, const std::string& what) {
      ++checked;
      ASSERT_TRUE(tolerant.Feed(frame_of(mutated)).ok());
      stream::ShardIngester::Options strict;
      strict.max_rejected = 0;
      stream::ShardIngester ingester(&collector, strict);
      ASSERT_TRUE(ingester.Feed(header + frame_of(first)).ok());
      const Status fed = ingester.Feed(frame_of(mutated));
      const auto decoded = DecodeMixedReport(mutated, collector);
      ASSERT_EQ(fed.ok(), decoded.ok()) << name << ' ' << what;
      MixedAggregator expected(&collector);
      expected.Add(first_report);
      if (decoded.ok()) {
        ++accepted;
        expected.Add(decoded.value());
        tolerant_expected.Add(decoded.value());
      } else {
        EXPECT_EQ(fed.code(), decoded.status().code()) << name << ' ' << what;
        EXPECT_EQ(fed.message(), "rejected report budget exhausted: " +
                                     decoded.status().message())
            << name << ' ' << what;
      }
      ExpectSameBits(ingester.aggregator(), expected, name + ' ' + what);
    };

    for (const std::string& frame : good) {
      for (size_t cut = 0; cut < frame.size(); ++cut) {
        check(frame.substr(0, cut), "cut=" + std::to_string(cut));
      }
      for (size_t at = 0; at < frame.size(); ++at) {
        for (int mask = 1; mask < 256; ++mask) {
          std::string flipped = frame;
          flipped[at] = static_cast<char>(flipped[at] ^ mask);
          check(flipped, "byte " + std::to_string(at) + " ^ " +
                             std::to_string(mask));
        }
      }
    }

    // A duplicate-attribute report (fails on its second entry; at k = 1 on
    // its entry count).
    MixedReport duplicated;
    MixedReportEntry entry;
    entry.attribute = 0;
    entry.numeric_value = 0.25;
    duplicated.push_back(entry);
    duplicated.push_back(entry);
    const std::string bytes = EncodeMixedReport(duplicated, collector);
    check(bytes, "duplicate");
    EXPECT_FALSE(DecodeMixedReport(bytes, collector).ok()) << name;

    ExpectSameBits(tolerant.aggregator(), tolerant_expected, name);
    EXPECT_EQ(tolerant.stats().accepted, accepted) << name;
    EXPECT_EQ(tolerant.stats().rejected, checked - accepted) << name;
    // The flips both reject and accept frames, so both sides were compared.
    EXPECT_GT(accepted, 0u) << name;
    EXPECT_LT(accepted, checked) << name;
  }
}

TEST(MixedWireTest, EncodedSizeMatchesThePrecomputedReserve) {
  // EncodeMixedReport reserves the exact encoded size up front; the formula
  // and the writer must agree or serialization reallocates mid-report.
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(10);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.5);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.25);
  tuple[3] = AttributeValue::Categorical(1);
  for (int i = 0; i < 100; ++i) {
    const MixedReport report = collector.Perturb(tuple, &rng);
    size_t expected = 2;
    for (const MixedReportEntry& entry : report) {
      const bool numeric =
          collector.schema()[entry.attribute].type == AttributeType::kNumeric;
      expected += 4 + 1 + (numeric ? 8 : 2 + 4 * entry.categorical_report.size());
    }
    EXPECT_EQ(EncodeMixedReport(report, collector).size(), expected);
  }
}

TEST(MixedWireTest, EncodingIsCompact) {
  // k entries at ~13 bytes each (numeric) — sanity-check the size claim.
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(6);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(0);
  tuple[3] = AttributeValue::Categorical(0);
  const MixedReport report = collector.Perturb(tuple, &rng);
  const std::string bytes = EncodeMixedReport(report, collector);
  EXPECT_LE(bytes.size(), 2 + collector.k() * (4 + 1 + 2 + 6 * 4 + 8));
}

}  // namespace
}  // namespace ldp
