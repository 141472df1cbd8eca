#include "core/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

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
  // server-side Accumulate would write out of bounds.
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

// Sink that records the delivered entries as a MixedReport, for comparing
// the streaming decoder against the materializing one.
class RecordingSink final : public MixedReportSink {
 public:
  void OnReportBegin(uint32_t entry_count) override {
    ++reports_begun_;
    last_entry_count_ = entry_count;
  }
  void OnNumericEntry(uint32_t attribute, double value) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.numeric_value = value;
    entries_.push_back(std::move(entry));
  }
  void OnCategoricalEntry(uint32_t attribute,
                          const FrequencyOracle::Report& payload) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.categorical_report = payload;
    entries_.push_back(std::move(entry));
  }

  int reports_begun_ = 0;
  uint32_t last_entry_count_ = 0;
  MixedReport entries_;
};

TEST(MixedFrameDecoderTest, StreamsExactlyWhatMaterializingDecodeReturns) {
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedFrameDecoder decoder(&collector);
  Rng rng(7);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.9);
  tuple[3] = AttributeValue::Categorical(5);
  for (int i = 0; i < 200; ++i) {
    const std::string bytes =
        EncodeMixedReport(collector.Perturb(tuple, &rng), collector);
    RecordingSink sink;
    ASSERT_TRUE(decoder.DecodeInto(bytes.data(), bytes.size(), &sink).ok());
    auto materialized = DecodeMixedReport(bytes, collector);
    ASSERT_TRUE(materialized.ok());
    EXPECT_EQ(sink.reports_begun_, 1);
    EXPECT_EQ(sink.last_entry_count_, collector.k());
    ASSERT_EQ(sink.entries_.size(), materialized.value().size());
    for (size_t j = 0; j < sink.entries_.size(); ++j) {
      EXPECT_EQ(sink.entries_[j].attribute,
                materialized.value()[j].attribute);
      EXPECT_EQ(sink.entries_[j].numeric_value,
                materialized.value()[j].numeric_value);
      EXPECT_EQ(sink.entries_[j].categorical_report,
                materialized.value()[j].categorical_report);
    }
  }
}

TEST(MixedFrameDecoderTest, SinkSeesNothingOnAnyMalformedFrame) {
  // All-or-nothing delivery: a frame that fails validation anywhere — even
  // on its last entry — must reach the sink with zero callbacks, or a
  // streamed aggregate would be corrupted by partial reports.
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedFrameDecoder decoder(&collector);
  Rng rng(8);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(1);
  tuple[3] = AttributeValue::Categorical(4);
  const std::string good =
      EncodeMixedReport(collector.Perturb(tuple, &rng), collector);

  // Every truncation point, including cuts inside the final entry.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    RecordingSink sink;
    EXPECT_FALSE(decoder.DecodeInto(good.data(), cut, &sink).ok());
    EXPECT_EQ(sink.reports_begun_, 0) << "cut=" << cut;
    EXPECT_TRUE(sink.entries_.empty()) << "cut=" << cut;
  }

  // A duplicate-attribute report (fails on the second entry).
  MixedReport duplicated;
  MixedReportEntry entry;
  entry.attribute = 0;
  entry.numeric_value = 0.25;
  duplicated.push_back(entry);
  duplicated.push_back(entry);
  const std::string bytes = EncodeMixedReport(duplicated, collector);
  RecordingSink sink;
  EXPECT_FALSE(decoder.DecodeInto(bytes.data(), bytes.size(), &sink).ok());
  EXPECT_EQ(sink.reports_begun_, 0);
  EXPECT_TRUE(sink.entries_.empty());

  // The decoder stays usable after rejections.
  RecordingSink recovered;
  ASSERT_TRUE(
      decoder.DecodeInto(good.data(), good.size(), &recovered).ok());
  EXPECT_EQ(recovered.reports_begun_, 1);
}

TEST(MixedFrameDecoderTest, OneShotWrapperMatchesPersistentDecoder) {
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(9);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(3);
  tuple[3] = AttributeValue::Categorical(0);
  const std::string bytes =
      EncodeMixedReport(collector.Perturb(tuple, &rng), collector);
  RecordingSink sink;
  ASSERT_TRUE(
      DecodeMixedReportInto(bytes.data(), bytes.size(), collector, &sink)
          .ok());
  EXPECT_EQ(sink.reports_begun_, 1);
  EXPECT_EQ(sink.entries_.size(), collector.k());
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
