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
#include "util/sampling.h"
#include "wire_report.h"

namespace ldp {
namespace {

using testing::PayloadWords;
using testing::PerturbBytes;
using testing::Rejection;
using testing::WireReport;

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

// One entry as an independent reference draws it.
struct ReferenceEntry {
  uint32_t attribute = 0;
  double numeric_value = 0.0;
  FrequencyOracle::Report payload;
};

// Section IV-C's client draws, spelled out without the wire: Floyd's sample
// of k attributes, then each sampled attribute's d/k-scaled PM/HM value or
// oracle report, in sample order. AppendReport must write exactly these,
// from an equal Rng.
std::vector<ReferenceEntry> ReferenceDraws(const MixedTupleCollector& collector,
                                           const MixedTuple& tuple, Rng* rng) {
  const double scale = static_cast<double>(collector.dimension()) /
                       static_cast<double>(collector.k());
  std::vector<ReferenceEntry> entries;
  for (const uint32_t attribute :
       SampleWithoutReplacement(collector.dimension(), collector.k(), rng)) {
    ReferenceEntry entry;
    entry.attribute = attribute;
    const FrequencyOracle* oracle = collector.oracle_for(attribute);
    if (oracle == nullptr) {
      entry.numeric_value =
          scale * collector.scalar_mechanism().Perturb(
                      tuple[attribute].numeric, rng);
    } else {
      entry.payload = oracle->Perturb(tuple[attribute].category, rng);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

// The decoder's entries for the last frame it accepted equal `expected`.
void ExpectEntries(const MixedFrameDecoder& decoder,
                   const MixedTupleCollector& collector,
                   const std::vector<ReferenceEntry>& expected,
                   const std::string& where) {
  const std::vector<MixedEntryView>& views = decoder.entries();
  ASSERT_EQ(views.size(), expected.size()) << where;
  for (size_t j = 0; j < views.size(); ++j) {
    EXPECT_EQ(views[j].attribute, expected[j].attribute) << where;
    EXPECT_EQ(views[j].oracle, collector.oracle_for(expected[j].attribute))
        << where;
    if (views[j].oracle == nullptr) {
      EXPECT_EQ(views[j].numeric_value, expected[j].numeric_value) << where;
    } else {
      EXPECT_EQ(PayloadWords(views[j]), expected[j].payload) << where;
    }
  }
}

TEST(SampledNumericWireTest, RoundTripsRealReports) {
  const MixedTupleCollector collector = MakeNumericCollector();
  MixedFrameDecoder decoder(&collector);
  Rng rng(1), twin(1);
  const MixedTuple tuple = NumericTuple({0.1, -0.5, 0.9, 0.0, -1.0, 1.0});
  for (int i = 0; i < 200; ++i) {
    const std::string bytes = PerturbBytes(collector, tuple, &rng);
    // u16 count, then u32 attribute + u8 kind + f64 value per entry.
    EXPECT_EQ(bytes.size(), 2u + 13u * collector.k());
    ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
    ExpectEntries(decoder, collector, ReferenceDraws(collector, tuple, &twin),
                  "report " + std::to_string(i));
  }
}

TEST(SampledNumericWireTest, RejectsTruncation) {
  const MixedTupleCollector collector = MakeNumericCollector();
  Rng rng(2);
  const std::string bytes = PerturbBytes(
      collector, NumericTuple({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}), &rng);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_NE(Rejection(collector, bytes.substr(0, cut)), nullptr)
        << "cut=" << cut;
  }
}

TEST(SampledNumericWireTest, RejectsTrailingBytes) {
  const MixedTupleCollector collector = MakeNumericCollector();
  Rng rng(3);
  std::string bytes = PerturbBytes(
      collector, NumericTuple({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}), &rng);
  bytes.push_back('x');
  EXPECT_NE(Rejection(collector, bytes), nullptr);
}

TEST(SampledNumericWireTest, RejectsWrongEntryCount) {
  const MixedTupleCollector collector = MakeNumericCollector();
  EXPECT_NE(Rejection(collector, WireReport().Numeric(0, 0.5).bytes()),
            nullptr);
}

TEST(SampledNumericWireTest, RejectsOutOfRangeAttributeAndValue) {
  const MixedTupleCollector collector = MakeNumericCollector();
  for (const std::string& bad :
       {WireReport().Numeric(0, 0.5).Numeric(99, 0.5).bytes(),
        WireReport().Numeric(0, 0.5).Numeric(1, 1e9).bytes(),
        WireReport().Numeric(0, 0.5).Numeric(1, std::nan("")).bytes()}) {
    EXPECT_NE(Rejection(collector, bad), nullptr);
  }
}

TEST(SampledNumericWireTest, RejectsDuplicateAttributes) {
  const MixedTupleCollector collector = MakeNumericCollector();
  EXPECT_NE(Rejection(collector,
                      WireReport().Numeric(3, 0.5).Numeric(3, -0.5).bytes()),
            nullptr);
}

TEST(MixedWireTest, RoundTripsRealReports) {
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedFrameDecoder decoder(&collector);
  Rng rng(4), twin(4);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.9);
  tuple[3] = AttributeValue::Categorical(5);
  for (int i = 0; i < 300; ++i) {
    const std::string bytes = PerturbBytes(collector, tuple, &rng);
    ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
    ExpectEntries(decoder, collector, ReferenceDraws(collector, tuple, &twin),
                  "report " + std::to_string(i));
  }
  // Both consumed exactly the same randomness.
  EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(MixedWireTest, RoundTripsEmptyCategoricalReports) {
  // An OUE report with no set bits is a categorical entry with an empty
  // payload, not to be mistaken for a numeric entry (whose value 0.0 would
  // be ambiguous without the kind byte).
  const MixedTupleCollector collector = MakeMixedCollector();
  const std::string bytes =
      WireReport().Numeric(0, 0.0).Categorical(1, {}).bytes();
  MixedFrameDecoder decoder(&collector);
  ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
  EXPECT_EQ(decoder.entries()[0].oracle, nullptr);
  EXPECT_EQ(decoder.entries()[1].oracle, collector.oracle_for(1));
  EXPECT_EQ(decoder.entries()[1].payload.size(), 0u);
}

TEST(MixedWireTest, RejectsTruncationEverywhere) {
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(5);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(1);
  tuple[3] = AttributeValue::Categorical(2);
  const std::string bytes = PerturbBytes(collector, tuple, &rng);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_NE(Rejection(collector, bytes.substr(0, cut)), nullptr);
  }
}

TEST(MixedWireTest, RejectsKindSchemaMismatch) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // A numeric entry for categorical attribute 1, then a categorical entry
  // for numeric attribute 0: each kind contradicts the schema.
  EXPECT_STREQ(
      Rejection(collector,
                WireReport().Numeric(1, 0.25).Numeric(0, 0.0).bytes()),
      "numeric entry for categorical attribute");
  EXPECT_STREQ(
      Rejection(collector,
                WireReport().Categorical(0, {}).Categorical(1, {}).bytes()),
      "categorical entry for numeric attribute");
}

TEST(MixedWireTest, RejectsUnknownEntryKind) {
  const MixedTupleCollector collector = MakeMixedCollector();
  std::string crafted;
  crafted.push_back(2);
  crafted.push_back(0);
  crafted.append(std::string(4, '\0'));  // attribute 0
  crafted.push_back(7);                  // bogus kind
  EXPECT_NE(Rejection(collector, crafted), nullptr);
}

TEST(MixedWireTest, RejectsOutOfRangeAttribute) {
  const MixedTupleCollector collector = MakeMixedCollector();
  std::string crafted;
  crafted.push_back(2);
  crafted.push_back(0);
  crafted.append(std::string("\x63\x00\x00\x00", 4));  // attribute 99
  crafted.push_back(0);                                // numeric kind
  crafted.append(8, '\0');
  EXPECT_NE(Rejection(collector, crafted), nullptr);
}

TEST(MixedWireTest, RejectsOversizedEntryCount) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // entry_count of 0xffff: far more entries than k; must be rejected before
  // any payload is trusted (and without attempting a 64k-entry reserve).
  std::string crafted;
  crafted.push_back(static_cast<char>(0xff));
  crafted.push_back(static_cast<char>(0xff));
  EXPECT_NE(Rejection(collector, crafted), nullptr);
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
  EXPECT_NE(Rejection(collector, crafted), nullptr);
}

TEST(MixedWireTest, RejectsCategoricalPayloadOutsideTheDomain) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // A "set bit" index of 9 in a domain of 4: without validation the
  // server-side Fold would write out of bounds.
  EXPECT_NE(
      Rejection(collector,
                WireReport().Categorical(1, {9}).Numeric(0, 0.0).bytes()),
      nullptr);
  // Duplicate bits would double-count support; also rejected.
  EXPECT_NE(
      Rejection(collector,
                WireReport().Categorical(1, {2, 2}).Numeric(0, 0.0).bytes()),
      nullptr);
  // In-range strictly increasing bits pass.
  EXPECT_EQ(
      Rejection(collector,
                WireReport().Categorical(1, {1, 3}).Numeric(0, 0.0).bytes()),
      nullptr);
}

TEST(MixedWireTest, RejectsOutOfBoundNumericValue) {
  const MixedTupleCollector collector = MakeMixedCollector();
  // 1e12 is far beyond (d/k) * OutputBound for HM.
  EXPECT_NE(
      Rejection(collector,
                WireReport().Numeric(0, 1e12).Numeric(2, 0.0).bytes()),
      nullptr);
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
  // The decoder's views of a client frame are the reference draws, and
  // folding them lands on the bits of folding the reference draws by hand
  // (numeric sums, oracle Accumulate on materialized reports).
  for (const MixedTupleCollector& collector : EveryOracleAtKOneAndTwo()) {
    const std::string name = CaseName(collector);
    MixedFrameDecoder decoder(&collector);
    MixedAggregator folded(&collector);
    const uint32_t d = collector.dimension();
    std::vector<uint64_t> attribute_reports(d, 0);
    std::vector<double> numeric_sums(d, 0.0);
    std::vector<std::vector<double>> supports(d);
    for (uint32_t j = 0; j < d; ++j) {
      if (collector.oracle_for(j) != nullptr) {
        supports[j].assign(collector.schema()[j].domain_size, 0.0);
      }
    }
    Rng rng(7), twin(7);
    const MixedTuple tuple = DecoderTuple();
    constexpr int kReports = 200;
    for (int i = 0; i < kReports; ++i) {
      const std::string bytes = PerturbBytes(collector, tuple, &rng);
      const std::vector<ReferenceEntry> reference =
          ReferenceDraws(collector, tuple, &twin);
      ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr) << name;
      ExpectEntries(decoder, collector, reference, name);
      ASSERT_EQ(decoder.DecodeInto(bytes.data(), bytes.size(), &folded),
                nullptr)
          << name;
      for (const ReferenceEntry& entry : reference) {
        ++attribute_reports[entry.attribute];
        const FrequencyOracle* oracle = collector.oracle_for(entry.attribute);
        if (oracle == nullptr) {
          numeric_sums[entry.attribute] += entry.numeric_value;
        } else {
          oracle->Accumulate(entry.payload, &supports[entry.attribute]);
        }
      }
    }
    auto expected = MixedAggregator::FromParts(
        &collector, kReports, std::move(attribute_reports),
        std::move(numeric_sums), std::move(supports));
    ASSERT_TRUE(expected.ok()) << name;
    ExpectSameBits(folded, expected.value(), name);
  }
}

TEST(MixedFrameDecoderTest, MutatedFramesGetOneVerdictAndFoldAllOrNothing) {
  // One accept set: for every truncation, every single-byte change of a
  // valid frame and a duplicate-attribute frame, a ShardIngester that fails
  // on its first rejection and a MixedFrameDecoder return the same verdict
  // and the same reason. A rejected frame leaves the aggregate untouched,
  // even when it fails on its last entry; an accepted one folds to the same
  // bits as the decoder folding it on its own.
  for (const MixedTupleCollector& collector : EveryOracleAtKOneAndTwo()) {
    const std::string name = CaseName(collector);
    const std::string header =
        stream::EncodeStreamHeader(stream::MakeMixedStreamHeader(collector));
    auto frame_of = [](const std::string& payload) {
      std::string frame;
      internal_wire::PutU32(&frame, static_cast<uint32_t>(payload.size()));
      return frame + payload;
    };
    MixedFrameDecoder decoder(&collector);

    // Valid frames holding a numeric and a categorical entry (at k = 1 they
    // are different frames).
    std::vector<std::string> good;
    Rng rng(8);
    bool numeric_seen = false, categorical_seen = false;
    while (!numeric_seen || !categorical_seen) {
      const std::string report = PerturbBytes(collector, DecoderTuple(), &rng);
      ASSERT_EQ(decoder.Validate(report.data(), report.size()), nullptr);
      bool has_numeric = false, has_categorical = false;
      for (const MixedEntryView& entry : decoder.entries()) {
        (entry.oracle == nullptr ? has_numeric : has_categorical) = true;
      }
      if ((has_numeric && !numeric_seen) ||
          (has_categorical && !categorical_seen)) {
        good.push_back(report);
        numeric_seen |= has_numeric;
        categorical_seen |= has_categorical;
      }
    }
    const std::string& first = good.front();

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
      const char* rejected = decoder.Validate(mutated.data(), mutated.size());
      ASSERT_EQ(fed.ok(), rejected == nullptr) << name << ' ' << what;
      MixedAggregator expected(&collector);
      ASSERT_EQ(decoder.DecodeInto(first.data(), first.size(), &expected),
                nullptr);
      if (rejected == nullptr) {
        ++accepted;
        decoder.DecodeInto(mutated.data(), mutated.size(), &expected);
        decoder.DecodeInto(mutated.data(), mutated.size(),
                           &tolerant_expected);
      } else {
        EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument)
            << name << ' ' << what;
        EXPECT_EQ(fed.message(),
                  std::string("rejected report budget exhausted: ") + rejected)
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
    const std::string bytes =
        WireReport().Numeric(0, 0.25).Numeric(0, 0.25).bytes();
    check(bytes, "duplicate");
    EXPECT_NE(Rejection(collector, bytes), nullptr) << name;

    ExpectSameBits(tolerant.aggregator(), tolerant_expected, name);
    EXPECT_EQ(tolerant.stats().accepted, accepted) << name;
    EXPECT_EQ(tolerant.stats().rejected, checked - accepted) << name;
    // The flips both reject and accept frames, so both sides were compared.
    EXPECT_GT(accepted, 0u) << name;
    EXPECT_LT(accepted, checked) << name;
  }
}

TEST(MixedWireTest, EncodedSizeMatchesTheLayout) {
  // AppendReport writes exactly the layout's bytes — 2 for the count, then
  // per entry 4 + 1 and an 8-byte value or a 2-byte count and 4 per payload
  // word — and only appends: after earlier bytes it writes the same report.
  const MixedTupleCollector collector = MakeMixedCollector();
  MixedFrameDecoder decoder(&collector);
  Rng rng(10), twin(10);
  MixedTuple tuple(4);
  tuple[0] = AttributeValue::Numeric(0.5);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.25);
  tuple[3] = AttributeValue::Categorical(1);
  std::string appended = "prefix";
  for (int i = 0; i < 100; ++i) {
    const std::string bytes = PerturbBytes(collector, tuple, &rng);
    ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
    size_t expected = 2;
    for (const MixedEntryView& entry : decoder.entries()) {
      expected += 4 + 1 + (entry.oracle == nullptr
                               ? 8
                               : 2 + 4 * entry.payload.size());
    }
    EXPECT_EQ(bytes.size(), expected);
    const size_t start = appended.size();
    collector.AppendReport(tuple, &twin, &appended);
    EXPECT_EQ(appended.substr(start), bytes);
  }
}

TEST(MixedWireTest, EncodingIsCompact) {
  // k entries at ~13 bytes each (numeric) — sanity-check the size claim.
  const MixedTupleCollector collector = MakeMixedCollector();
  Rng rng(6);
  MixedTuple tuple(4);
  tuple[1] = AttributeValue::Categorical(0);
  tuple[3] = AttributeValue::Categorical(0);
  const std::string bytes = PerturbBytes(collector, tuple, &rng);
  EXPECT_LE(bytes.size(), 2 + collector.k() * (4 + 1 + 2 + 6 * 4 + 8));
}

}  // namespace
}  // namespace ldp
