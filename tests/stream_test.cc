#include "stream/report_stream.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/wire.h"
#include "stream/shard_ingester.h"
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
  tuple[0] = AttributeValue::Numeric(0.3);
  tuple[1] = AttributeValue::Categorical(2);
  tuple[2] = AttributeValue::Numeric(-0.7);
  tuple[3] = AttributeValue::Categorical(5);
  return tuple;
}

// A complete in-memory stream with `reports` perturbed reports.
std::string MakeStream(const MixedTupleCollector& collector, int reports,
                       uint64_t seed = 1) {
  std::ostringstream out;
  ReportStreamWriter writer(&out, MakeMixedStreamHeader(collector));
  Rng rng(seed);
  for (int i = 0; i < reports; ++i) {
    EXPECT_TRUE(writer.WriteReport(collector, SampleTuple(), &rng).ok());
  }
  return out.str();
}

TEST(StreamHeaderTest, RoundTrips) {
  const MixedTupleCollector collector = MakeCollector();
  const StreamHeader header = MakeMixedStreamHeader(collector);
  const std::string bytes = EncodeStreamHeader(header);
  EXPECT_EQ(bytes.size(), kStreamHeaderBytes);
  auto decoded = DecodeStreamHeader(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(bytes[6], 0);  // kind byte
  EXPECT_EQ(decoded.value().mechanism, collector.numeric_kind());
  EXPECT_EQ(decoded.value().oracle, collector.categorical_kind());
  EXPECT_EQ(decoded.value().epsilon, collector.epsilon());
  EXPECT_EQ(decoded.value().dimension, collector.dimension());
  EXPECT_EQ(decoded.value().k, collector.k());
  EXPECT_EQ(decoded.value().schema_hash, CollectorSchemaHash(collector));
  EXPECT_TRUE(ValidateMixedStreamHeader(decoded.value(), collector).ok());
}

TEST(StreamHeaderTest, NumericHeaderRoundTrips) {
  // An all-numeric schema (the paper's Algorithm 4) writes the same header
  // layout, kind byte 0 included.
  auto collector = MixedTupleCollector::Create(
      std::vector<MixedAttribute>(8, MixedAttribute::Numeric()), 2.0,
      MechanismKind::kPiecewise);
  ASSERT_TRUE(collector.ok());
  const std::string bytes =
      EncodeStreamHeader(MakeMixedStreamHeader(collector.value()));
  EXPECT_EQ(bytes[6], 0);
  auto decoded = DecodeStreamHeader(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().mechanism, MechanismKind::kPiecewise);
  EXPECT_EQ(decoded.value().dimension, 8u);
  EXPECT_EQ(decoded.value().schema_hash,
            CollectorSchemaHash(collector.value()));
  EXPECT_TRUE(
      ValidateMixedStreamHeader(decoded.value(), collector.value()).ok());
}

TEST(StreamHeaderTest, RejectsTruncation) {
  const std::string bytes =
      EncodeStreamHeader(MakeMixedStreamHeader(MakeCollector()));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeStreamHeader(bytes.substr(0, cut)).ok()) << cut;
  }
}

TEST(StreamHeaderTest, RejectsBadMagicVersionAndEnums) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string good =
      EncodeStreamHeader(MakeMixedStreamHeader(collector));

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeStreamHeader(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(DecodeStreamHeader(bad_version).ok());

  // Kind byte 1 named the retired numeric-only stream kind; only 0 is read.
  for (const char kind : {1, 42}) {
    std::string bad_kind = good;
    bad_kind[6] = kind;
    EXPECT_EQ(DecodeStreamHeader(bad_kind).status().code(),
              StatusCode::kInvalidArgument);
  }

  std::string bad_mechanism = good;
  bad_mechanism[7] = 42;
  EXPECT_FALSE(DecodeStreamHeader(bad_mechanism).ok());

  std::string bad_oracle = good;
  bad_oracle[8] = 42;
  EXPECT_FALSE(DecodeStreamHeader(bad_oracle).ok());
}

TEST(StreamHeaderTest, RejectsInconsistentGeometry) {
  StreamHeader header = MakeMixedStreamHeader(MakeCollector());
  header.k = header.dimension + 1;  // k > d
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
  header.k = 0;
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
  header = MakeMixedStreamHeader(MakeCollector());
  header.epsilon = 0.0;
  EXPECT_FALSE(DecodeStreamHeader(EncodeStreamHeader(header)).ok());
}

TEST(StreamHeaderTest, ValidationCatchesEveryMismatch) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  StreamHeader header = MakeMixedStreamHeader(collector);

  StreamHeader wrong = header;
  wrong.epsilon = 5.0;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.mechanism = MechanismKind::kPiecewise;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.oracle = FrequencyOracleKind::kGrr;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  wrong = header;
  wrong.schema_hash ^= 1;
  EXPECT_FALSE(ValidateMixedStreamHeader(wrong, collector).ok());

  // A collector over a different schema must be rejected via the hash even
  // when ε, d and k all agree.
  auto other = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(6)},
      6.0);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(other.value().k(), collector.k());
  EXPECT_FALSE(ValidateMixedStreamHeader(header, other.value()).ok());
  EXPECT_NE(CollectorSchemaHash(collector),
            CollectorSchemaHash(other.value()));
}

TEST(ReportStreamTest, WriterReaderRoundTrip) {
  const MixedTupleCollector collector = MakeCollector();
  std::ostringstream sink;
  ReportStreamWriter writer(&sink, MakeMixedStreamHeader(collector));
  // The writer's frames carry the bytes the collector writes from an equal
  // Rng.
  Rng rng(3), twin(3);
  std::vector<std::string> reports;
  for (int i = 0; i < 50; ++i) {
    reports.push_back(testing::PerturbBytes(collector, SampleTuple(), &twin));
    ASSERT_TRUE(writer.WriteReport(collector, SampleTuple(), &rng).ok());
  }
  EXPECT_EQ(writer.frames_written(), 50u);

  std::istringstream source(sink.str());
  ReportStreamReader reader(&source);
  auto header = reader.ReadHeader();
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(ValidateMixedStreamHeader(header.value(), collector).ok());
  std::string payload;
  for (int i = 0; i < 50; ++i) {
    auto frame = reader.NextFrame(&payload);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame.value());
    EXPECT_EQ(payload, reports[i]);
    EXPECT_EQ(testing::Rejection(collector, payload), nullptr);
  }
  auto eof = reader.NextFrame(&payload);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value());
}

TEST(ReportStreamTest, ReaderRequiresHeaderFirst) {
  std::istringstream source("anything");
  ReportStreamReader reader(&source);
  std::string payload;
  EXPECT_FALSE(reader.NextFrame(&payload).ok());
}

TEST(ReportStreamTest, ReaderRejectsOversizedAndPartialFrames) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);

  // Oversized frame length after the valid report.
  std::string oversized = bytes;
  oversized += std::string("\xff\xff\xff\xff", 4);
  std::istringstream source(oversized);
  ReportStreamReader reader(&source);
  ASSERT_TRUE(reader.ReadHeader().ok());
  std::string payload;
  ASSERT_TRUE(reader.NextFrame(&payload).value());
  EXPECT_FALSE(reader.NextFrame(&payload).ok());

  // Truncated mid-frame.
  std::istringstream truncated(bytes.substr(0, bytes.size() - 3));
  ReportStreamReader truncated_reader(&truncated);
  ASSERT_TRUE(truncated_reader.ReadHeader().ok());
  EXPECT_FALSE(truncated_reader.NextFrame(&payload).ok());
}

TEST(ShardIngesterTest, IngestsWholeStream) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 200);
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_TRUE(ingester.header_seen());
  EXPECT_EQ(ingester.stats().frames, 200u);
  EXPECT_EQ(ingester.stats().accepted, 200u);
  EXPECT_EQ(ingester.stats().rejected, 0u);
  EXPECT_EQ(ingester.stats().bytes, bytes.size());
  EXPECT_EQ(ingester.aggregator().num_reports(), 200u);
}

TEST(ShardIngesterTest, ByteAtATimeFeedMatchesWholeBuffer) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 64);

  ShardIngester whole(&collector);
  ASSERT_TRUE(whole.Feed(bytes).ok());
  ASSERT_TRUE(whole.Finish().ok());

  ShardIngester dribble(&collector);
  for (const char byte : bytes) {
    ASSERT_TRUE(dribble.Feed(&byte, 1).ok());
  }
  ASSERT_TRUE(dribble.Finish().ok());

  EXPECT_EQ(whole.aggregator().num_reports(),
            dribble.aggregator().num_reports());
  EXPECT_EQ(whole.aggregator().numeric_sums(),
            dribble.aggregator().numeric_sums());
  EXPECT_EQ(whole.aggregator().supports(), dribble.aggregator().supports());
  EXPECT_EQ(whole.aggregator().attribute_report_counts(),
            dribble.aggregator().attribute_report_counts());
}

TEST(ShardIngesterTest, EveryChunkingMatchesWholeBufferAcrossRingWraps) {
  // Chunk sizes that are coprime to the frame sizes force every possible
  // item/chunk phase, repeatedly staging partial items in the ring and
  // marching its read head around the wrap boundary. A long stream makes
  // the head lap the (small, power-of-two) ring many times for each chunk
  // size. All of them must reproduce the one-shot Feed bit for bit.
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 400);

  ShardIngester whole(&collector);
  ASSERT_TRUE(whole.Feed(bytes).ok());
  ASSERT_TRUE(whole.Finish().ok());
  ASSERT_EQ(whole.stats().accepted, 400u);

  for (const size_t chunk : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 26u, 31u, 64u,
                             127u, 255u, 1000u}) {
    ShardIngester chunked(&collector);
    for (size_t cursor = 0; cursor < bytes.size(); cursor += chunk) {
      const size_t take = std::min(chunk, bytes.size() - cursor);
      ASSERT_TRUE(chunked.Feed(bytes.data() + cursor, take).ok())
          << "chunk size " << chunk;
    }
    ASSERT_TRUE(chunked.Finish().ok()) << "chunk size " << chunk;
    EXPECT_EQ(chunked.stats().accepted, whole.stats().accepted)
        << "chunk size " << chunk;
    EXPECT_EQ(chunked.stats().bytes, whole.stats().bytes);
    EXPECT_EQ(chunked.aggregator().num_reports(),
              whole.aggregator().num_reports());
    EXPECT_EQ(chunked.aggregator().numeric_sums(),
              whole.aggregator().numeric_sums());
    EXPECT_EQ(chunked.aggregator().supports(), whole.aggregator().supports());
    EXPECT_EQ(chunked.aggregator().attribute_report_counts(),
              whole.aggregator().attribute_report_counts());
  }
}

TEST(ShardIngesterTest, VisitorDecodeMatchesMaterializingDecodeBitForBit) {
  // The ingester folds each frame straight from the bytes it stages
  // (MixedFrameDecoder views -> MixedAggregator::FoldValidated); reading
  // every frame out with a ReportStreamReader and decoding it on its own
  // must produce bit-identical aggregates.
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 250);

  ShardIngester streamed(&collector);
  ASSERT_TRUE(streamed.Feed(bytes).ok());
  ASSERT_TRUE(streamed.Finish().ok());

  MixedAggregator materialized(&collector);
  MixedFrameDecoder decoder(&collector);
  std::istringstream source(bytes);
  ReportStreamReader reader(&source);
  ASSERT_TRUE(reader.ReadHeader().ok());
  std::string payload;
  for (;;) {
    auto frame = reader.NextFrame(&payload);
    ASSERT_TRUE(frame.ok());
    if (!frame.value()) break;
    ASSERT_EQ(
        decoder.DecodeInto(payload.data(), payload.size(), &materialized),
        nullptr);
  }

  EXPECT_EQ(streamed.aggregator().num_reports(), materialized.num_reports());
  EXPECT_EQ(streamed.aggregator().numeric_sums(),
            materialized.numeric_sums());
  EXPECT_EQ(streamed.aggregator().supports(), materialized.supports());
  EXPECT_EQ(streamed.aggregator().attribute_report_counts(),
            materialized.attribute_report_counts());
}

TEST(ShardIngesterTest, MatchesStreamlessAggregation) {
  const MixedTupleCollector collector = MakeCollector();
  MixedAggregator direct(&collector);
  std::ostringstream sink;
  ReportStreamWriter writer(&sink, MakeMixedStreamHeader(collector));
  Rng rng(9), twin(9);
  for (int i = 0; i < 300; ++i) {
    testing::PerturbAndFold(collector, SampleTuple(), &twin, &direct);
    ASSERT_TRUE(writer.WriteReport(collector, SampleTuple(), &rng).ok());
  }
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(sink.str()).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.aggregator().num_reports(), direct.num_reports());
  EXPECT_EQ(ingester.aggregator().numeric_sums(), direct.numeric_sums());
  EXPECT_EQ(ingester.aggregator().supports(), direct.supports());
}

TEST(ShardIngesterTest, RejectsMismatchedHeader) {
  const MixedTupleCollector collector = MakeCollector(6.0);
  const MixedTupleCollector other = MakeCollector(5.0);
  const std::string bytes = MakeStream(other, 5);
  ShardIngester ingester(&collector);
  EXPECT_FALSE(ingester.Feed(bytes).ok());
  EXPECT_EQ(ingester.stats().accepted, 0u);
  // Poisoned: every later call reports the same failure.
  EXPECT_FALSE(ingester.Feed(bytes).ok());
  EXPECT_FALSE(ingester.Finish().ok());
}

TEST(ShardIngesterTest, SkipsMalformedFramesByDefault) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 3);
  // Append a frame whose payload is garbage (valid framing, bad report).
  std::string garbage_frame;
  ASSERT_TRUE(AppendFrame("not a report", &garbage_frame).ok());
  bytes += garbage_frame;
  const std::string more = MakeStream(collector, 2, 77);
  bytes += more.substr(kStreamHeaderBytes);  // splice the 2 extra frames

  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().frames, 6u);
  EXPECT_EQ(ingester.stats().accepted, 5u);
  EXPECT_EQ(ingester.stats().rejected, 1u);
  EXPECT_EQ(ingester.aggregator().num_reports(), 5u);
}

TEST(ShardIngesterTest, StrictModeFailsOnMalformedFrame) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 3);
  std::string garbage_frame;
  ASSERT_TRUE(AppendFrame("junk", &garbage_frame).ok());
  bytes += garbage_frame;

  ShardIngester::Options options;
  options.max_rejected = 0;
  ShardIngester ingester(&collector, options);
  Status status = ingester.Feed(bytes);
  if (status.ok()) status = ingester.Finish();
  EXPECT_FALSE(status.ok());
}

TEST(ShardIngesterTest, RejectionBudgetPoisonsTheStream) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);
  for (int i = 0; i < 3; ++i) {
    std::string garbage_frame;
    ASSERT_TRUE(AppendFrame("junk", &garbage_frame).ok());
    bytes += garbage_frame;
  }
  ShardIngester::Options options;
  options.max_rejected = 1;
  ShardIngester ingester(&collector, options);
  Status status = ingester.Feed(bytes);
  if (status.ok()) status = ingester.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ingester.stats().rejected, 2u);  // budget + the one over it
}

TEST(ShardIngesterTest, RejectsOversizedFrameLength) {
  const MixedTupleCollector collector = MakeCollector();
  std::string bytes = MakeStream(collector, 1);
  bytes += std::string("\xff\xff\xff\xff", 4);  // 4 GiB frame "length"
  ShardIngester ingester(&collector);
  EXPECT_FALSE(ingester.Feed(bytes).ok());
}

TEST(ShardIngesterTest, FinishRejectsTruncatedStreams) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 4);
  // A stream cut anywhere strictly inside the header must fail Finish.
  for (size_t cut = 0; cut < kStreamHeaderBytes; ++cut) {
    ShardIngester ingester(&collector);
    ASSERT_TRUE(ingester.Feed(bytes.data(), cut).ok());
    EXPECT_FALSE(ingester.Finish().ok()) << cut;
  }
  // A cut mid-frame:
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.Feed(bytes.data(), bytes.size() - 2).ok());
  EXPECT_FALSE(ingester.Finish().ok());
  // Header-only stream is a valid (empty) shard.
  ShardIngester empty(&collector);
  ASSERT_TRUE(empty.Feed(bytes.data(), kStreamHeaderBytes).ok());
  EXPECT_TRUE(empty.Finish().ok());
  EXPECT_EQ(empty.aggregator().num_reports(), 0u);
}

TEST(ShardIngesterTest, IngestStreamFromIstream) {
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 128);
  std::istringstream source(bytes);
  ShardIngester ingester(&collector);
  ASSERT_TRUE(ingester.IngestStream(source).ok());
  EXPECT_EQ(ingester.aggregator().num_reports(), 128u);
}

}  // namespace
}  // namespace ldp::stream
