// All-numeric schemas — the paper's Algorithm 4 — over the one report
// stream format: an all-numeric pipeline writes kind byte 0 and mixed
// frames whose entries are all numeric, and the headline parity contract
// holds on it — a sharded run through api::ServerSession reproduces the
// in-process Pipeline::Collect simulation BIT FOR BIT, while adversarial
// frames are rejected without aborting the stream. The retired numeric-only
// artifacts (stream kind byte 1, 'LDPN' snapshots, 'LDPE' kind byte 1) are
// refused.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/wire.h"
#include "data/dataset.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

// The retired CollectProposed wrapper, inlined over the session facade.
Result<api::CollectionOutput> CollectProposed(
    const data::Dataset& dataset, double epsilon, uint64_t seed,
    MechanismKind numeric_kind = MechanismKind::kHybrid,
    FrequencyOracleKind oracle_kind = FrequencyOracleKind::kOue,
    ThreadPool* pool = nullptr) {
  api::PipelineConfig config;
  config.epsilon = epsilon;
  config.mechanism = numeric_kind;
  config.oracle = oracle_kind;
  LDP_ASSIGN_OR_RETURN(config.attributes,
                       api::AttributesFromSchema(dataset.schema()));
  Result<api::Pipeline> pipeline =
      api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) return pipeline.status();
  return pipeline.value().Collect(dataset, seed, pool);
}


constexpr double kEpsilon = 8.0;  // k = 3 of 4: multi-entry reports
constexpr uint32_t kDimension = 4;
constexpr uint64_t kSeed = 7;
constexpr uint64_t kRows = 2000;

data::Dataset MakeNumericData() {
  std::vector<data::ColumnSpec> columns;
  for (uint32_t j = 0; j < kDimension; ++j) {
    columns.push_back(
        data::ColumnSpec::Numeric("x" + std::to_string(j), -1.0, 1.0));
  }
  auto schema = data::Schema::Create(std::move(columns));
  EXPECT_TRUE(schema.ok());
  data::Dataset dataset(schema.value());
  dataset.Resize(kRows);
  Rng rng(42);
  for (uint64_t row = 0; row < kRows; ++row) {
    for (uint32_t j = 0; j < kDimension; ++j) {
      dataset.set_numeric(row, j, rng.Uniform(-1.0, 1.0));
    }
  }
  return dataset;
}

// Row `row` of an all-numeric dataset as a collection tuple.
MixedTuple NumericRow(const data::Dataset& dataset, uint64_t row) {
  MixedTuple tuple(dataset.schema().num_columns());
  for (uint32_t j = 0; j < tuple.size(); ++j) {
    tuple[j] = AttributeValue::Numeric(dataset.numeric(row, j));
  }
  return tuple;
}

api::Pipeline MakeNumericPipeline(const data::Dataset& dataset) {
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  EXPECT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

// Writes rows [range.begin, range.end) as one framed stream via the client
// session, user `r` drawing from UserRng(seed, r).
std::string WriteNumericShard(const data::Dataset& dataset,
                              const api::ClientSession& client,
                              IndexRange range, uint64_t seed = kSeed) {
  std::string shard = client.EncodeHeader();
  for (uint64_t r = range.begin; r < range.end; ++r) {
    Rng rng = api::UserRng(seed, r);
    auto payload = client.EncodeReport(NumericRow(dataset, r), &rng);
    EXPECT_TRUE(payload.ok());
    EXPECT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
  }
  return shard;
}

// A unique scratch path for one test's input files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ldp_numeric_stream_" +
         std::to_string(::getpid()) + "_" + name;
}

TEST(NumericStreamTest, AllNumericPipelineEncodesKindZeroAndMixedFrames) {
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  const MixedTupleCollector& collector = pipeline.mixed_collector();
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  const std::string header = client.value().EncodeHeader();
  ASSERT_EQ(header.size(), stream::kStreamHeaderBytes);
  EXPECT_EQ(header[6], 0);  // the stream kind byte

  for (uint64_t r = 0; r < 50; ++r) {
    Rng rng = api::UserRng(kSeed, r);
    auto payload = client.value().EncodeReport(NumericRow(dataset, r), &rng);
    ASSERT_TRUE(payload.ok());
    // u16 count, then per entry u32 attribute, u8 kind (0 = numeric), f64.
    const std::string& bytes = payload.value();
    ASSERT_EQ(bytes.size(), 2u + 13u * collector.k());
    for (uint32_t e = 0; e < collector.k(); ++e) {
      EXPECT_EQ(bytes[2 + 13 * e + 4], 0) << "entry " << e;
    }
    MixedFrameDecoder decoder(&collector);
    ASSERT_EQ(decoder.Validate(bytes.data(), bytes.size()), nullptr);
    ASSERT_EQ(decoder.entries().size(), collector.k());
    for (const MixedEntryView& entry : decoder.entries()) {
      EXPECT_EQ(entry.oracle, nullptr);
    }
  }
}

TEST(NumericStreamTest, ShardedServerSessionReproducesCollectProposed) {
  const data::Dataset dataset = MakeNumericData();
  // Shard boundaries mirror the pooled run's ParallelFor chunks (threads×4),
  // and shards merge in order — the same bit-reproduction contract every
  // schema has.
  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                  MechanismKind::kHybrid,
                                  FrequencyOracleKind::kOue, &pool);
  ASSERT_TRUE(expected.ok());

  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());

  // >= 2 shards, fed across 1000-byte chunk boundaries, closed in order.
  const std::vector<IndexRange> ranges =
      SplitRange(kRows, kPoolThreads * 4);
  ASSERT_GE(ranges.size(), 2u);
  for (const IndexRange& range : ranges) {
    const std::string bytes =
        WriteNumericShard(dataset, client.value(), range);
    const size_t shard = server.value().OpenShard();
    for (size_t offset = 0; offset < bytes.size(); offset += 1000) {
      const size_t take = std::min<size_t>(1000, bytes.size() - offset);
      ASSERT_TRUE(
          server.value().Feed(shard, bytes.data() + offset, take).ok());
    }
    ASSERT_TRUE(server.value().CloseShard(shard).ok());
  }

  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean = server.value().EstimateMean(
        expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j])
        << "attribute " << j;
  }
}

TEST(NumericStreamTest, TwoEpochNumericSessionMatchesCollectAndSumsEpsilon) {
  const data::Dataset dataset = MakeNumericData();
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  ASSERT_TRUE(config.ok());
  config.value().plan.epochs = 2;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());
  auto server = pipeline.value().NewServer();
  ASSERT_TRUE(server.ok());
  api::ServerSession& session = server.value();

  constexpr unsigned kPoolThreads = 2;
  constexpr uint64_t kEpochSeeds[] = {kSeed, kSeed + 1};
  const std::vector<IndexRange> ranges =
      SplitRange(kRows, kPoolThreads * 4);
  ASSERT_GE(ranges.size(), 2u);
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      ASSERT_TRUE(session.AdvanceEpoch().ok());
    }
    for (const IndexRange& range : ranges) {
      const std::string shard_bytes = WriteNumericShard(
          dataset, client.value(), range, kEpochSeeds[epoch]);
      const size_t shard = session.OpenShard();
      ASSERT_TRUE(session.Feed(shard, shard_bytes).ok());
      ASSERT_TRUE(session.CloseShard(shard).ok());
    }
  }

  // The accountant reports the summed spend of both epochs, and a third
  // epoch is refused.
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
  EXPECT_FALSE(session.AdvanceEpoch().ok());

  ThreadPool pool(kPoolThreads);
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    auto expected = CollectProposed(
        dataset, kEpsilon, kEpochSeeds[epoch], MechanismKind::kHybrid,
        FrequencyOracleKind::kOue, &pool);
    ASSERT_TRUE(expected.ok());
    auto reports = session.num_reports(epoch);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), kRows);
    for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
      auto mean = session.EstimateMean(
          expected.value().numeric_columns[j], epoch);
      ASSERT_TRUE(mean.ok());
      EXPECT_EQ(mean.value(), expected.value().estimated_means[j])
          << "epoch " << epoch << " attribute " << j;
    }
  }
}

TEST(NumericStreamTest, AdversarialFramesRejectedWithoutAbortingTheStream) {
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  std::string shard =
      WriteNumericShard(dataset, client.value(), IndexRange{0, 100});
  // A truncated payload (half a report) framed as a whole frame, and a
  // frame that is no report at all: both must bump `rejected` and leave
  // the stream alive.
  Rng rng(5);
  auto good = client.value().EncodeReport(NumericRow(dataset, 0), &rng);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(stream::AppendFrame(
                  good.value().substr(0, good.value().size() / 2), &shard)
                  .ok());
  ASSERT_TRUE(stream::AppendFrame("not a numeric report", &shard).ok());
  ASSERT_TRUE(stream::AppendFrame(good.value(), &shard).ok());

  stream::ShardIngester ingester(&pipeline.mixed_collector());
  ASSERT_TRUE(ingester.Feed(shard).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().accepted, 101u);
  EXPECT_EQ(ingester.stats().rejected, 2u);
  EXPECT_EQ(ingester.aggregator().num_reports(), 101u);
}

TEST(NumericStreamTest, WrongStreamKindHeaderIsRejectedUpFront) {
  // A stream still carrying the retired numeric kind byte (1) fails header
  // decoding before any frame is decoded.
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  std::string shard =
      WriteNumericShard(dataset, client.value(), IndexRange{0, 10});
  shard[6] = 1;

  stream::ShardIngester ingester(&pipeline.mixed_collector());
  EXPECT_EQ(ingester.Feed(shard).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ingester.stats().frames, 0u);
  EXPECT_EQ(ingester.aggregator().num_reports(), 0u);
}

TEST(NumericStreamTest, RetiredNumericSnapshotIsRefused) {
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  const MixedTupleCollector& collector = pipeline.mixed_collector();

  // A hand-built 'LDPN' snapshot in the retired numeric layout: the
  // 'LDPA'-style preamble, then per attribute u64 report count, f64 sum.
  std::string ldpn;
  internal_wire::PutU32(&ldpn, 0x4e50444cu);  // 'LDPN'
  internal_wire::PutU16(&ldpn, 1);
  internal_wire::PutU8(&ldpn, static_cast<uint8_t>(MechanismKind::kHybrid));
  internal_wire::PutU8(&ldpn, static_cast<uint8_t>(FrequencyOracleKind::kOue));
  internal_wire::PutU64(&ldpn, pipeline.header().schema_hash);
  internal_wire::PutF64(&ldpn, kEpsilon);
  internal_wire::PutU32(&ldpn, kDimension);
  internal_wire::PutU32(&ldpn, collector.k());
  internal_wire::PutU64(&ldpn, 1);
  for (uint32_t j = 0; j < kDimension; ++j) {
    internal_wire::PutU64(&ldpn, j < collector.k() ? 1 : 0);
    internal_wire::PutF64(&ldpn, j < collector.k() ? 0.5 : 0.0);
  }

  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server.value().Merge(ldpn).code(), StatusCode::kInvalidArgument);

  const std::string path = TempPath("retired.ldpn");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(ldpn.data(), static_cast<std::streamsize>(ldpn.size()));
  }
  EXPECT_EQ(server.value().IngestInputs({path}, nullptr).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(NumericStreamTest, SessionSnapshotWithNonzeroKindByteIsRefused) {
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  auto source = pipeline.NewServer();
  ASSERT_TRUE(source.ok());
  const size_t shard = source.value().OpenShard();
  ASSERT_TRUE(source.value()
                  .Feed(shard, WriteNumericShard(dataset, client.value(),
                                                 IndexRange{0, 100}))
                  .ok());
  ASSERT_TRUE(source.value().CloseShard(shard).ok());
  const std::string snapshot = source.value().Snapshot();
  ASSERT_EQ(snapshot[6], 0);  // the 'LDPE' kind byte

  // The honest snapshot merges; the same bytes with kind byte 1 do not.
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value().Merge(snapshot).ok());
  std::string retired = snapshot;
  retired[6] = 1;
  EXPECT_EQ(api::DecodeSessionSnapshotConfig(retired).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.value().Merge(retired).code(),
            StatusCode::kInvalidArgument);

  const std::string path = TempPath("retired.ldpe");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(retired.data(), static_cast<std::streamsize>(retired.size()));
  }
  EXPECT_EQ(server.value().IngestInputs({path}, nullptr).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 100u);
}

TEST(NumericStreamTest, HandleDriverIngestsNumericShardsInParallel) {
  const data::Dataset dataset = MakeNumericData();
  const api::Pipeline pipeline = MakeNumericPipeline(dataset);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  constexpr unsigned kPoolThreads = 2;
  std::vector<std::string> shards;
  for (const IndexRange& range : SplitRange(kRows, kPoolThreads * 4)) {
    shards.push_back(WriteNumericShard(dataset, client.value(), range));
  }
  std::vector<std::string> paths;
  for (size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(TempPath("parallel_" + std::to_string(s) + ".ldps"));
    std::ofstream out(paths.back(), std::ios::binary);
    out.write(shards[s].data(), static_cast<std::streamsize>(shards[s].size()));
  }
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  ThreadPool pool(3);
  stream::MultiShardSummary summary;
  ASSERT_TRUE(server.value().IngestInputs(paths, &pool, &summary).ok());
  for (const std::string& path : paths) std::remove(path.c_str());
  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
  EXPECT_EQ(summary.total_reports, kRows);
  EXPECT_EQ(summary.total_rejected, 0u);

  ThreadPool collect_pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                  MechanismKind::kHybrid,
                                  FrequencyOracleKind::kOue, &collect_pool);
  ASSERT_TRUE(expected.ok());
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean =
        server.value().EstimateMean(expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j]);
  }
}

}  // namespace
}  // namespace ldp
