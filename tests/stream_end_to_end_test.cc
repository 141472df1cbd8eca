// End-to-end equivalence of the deployment split: privatizing users into
// framed shard streams (the ldp_report path), ingesting the shards
// concurrently and reducing them in order (the ldp_aggregate path) must
// reproduce the in-process Pipeline::Collect simulation BIT FOR BIT — same
// seeds, same chunk boundaries, same estimates, regardless of how many
// threads either side uses.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kSeed = 123;
constexpr uint64_t kRows = 4000;

data::Dataset MakeData() {
  auto dataset = data::MakeBrazilCensus(kRows, 7);
  EXPECT_TRUE(dataset.ok());
  return data::NormalizeNumeric(dataset.value());
}

// The in-process golden run every deployment shape must reproduce, through
// the session facade (the retired CollectProposed wrapper inlined).
Result<api::CollectionOutput> CollectProposed(const data::Dataset& dataset,
                                              double epsilon, uint64_t seed,
                                              MechanismKind numeric_kind,
                                              FrequencyOracleKind oracle_kind,
                                              ThreadPool* pool) {
  api::PipelineConfig config;
  config.epsilon = epsilon;
  config.mechanism = numeric_kind;
  config.oracle = oracle_kind;
  LDP_ASSIGN_OR_RETURN(config.attributes,
                       api::AttributesFromSchema(dataset.schema()));
  Result<api::Pipeline> pipeline = api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) return pipeline.status();
  return pipeline.value().Collect(dataset, seed, pool);
}

MixedTupleCollector MakeCollector(const data::Dataset& dataset) {
  auto schema = api::AttributesFromSchema(dataset.schema());
  EXPECT_TRUE(schema.ok());
  auto collector =
      MixedTupleCollector::Create(std::move(schema).value(), kEpsilon);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

// The client half: privatizes rows [range.begin, range.end) into one framed
// stream, exactly as tools/ldp_report does.
std::string WriteShard(const data::Dataset& dataset,
                       const MixedTupleCollector& collector,
                       IndexRange range) {
  std::ostringstream out;
  stream::ReportStreamWriter writer(&out,
                                    stream::MakeMixedStreamHeader(collector));
  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  MixedTuple tuple(d);
  for (uint64_t row = range.begin; row < range.end; ++row) {
    for (uint32_t col = 0; col < d; ++col) {
      if (schema.column(col).type == data::ColumnType::kNumeric) {
        tuple[col].numeric = dataset.numeric(row, col);
      } else {
        tuple[col].category = dataset.category(row, col);
      }
    }
    Rng rng = api::UserRng(kSeed, row);
    EXPECT_TRUE(writer.WriteReport(collector, tuple, &rng).ok());
  }
  return out.str();
}

// Shard streams whose boundaries match a ParallelFor run on `pool_threads`
// workers (ParallelFor splits into threads*4 chunks).
std::vector<std::string> WriteShards(const data::Dataset& dataset,
                                     const MixedTupleCollector& collector,
                                     unsigned pool_threads) {
  std::vector<std::string> shards;
  for (const IndexRange range :
       SplitRange(dataset.num_rows(), pool_threads * 4)) {
    shards.push_back(WriteShard(dataset, collector, range));
  }
  return shards;
}

// The server half: writes the shard buffers to files and bulk-loads them
// into a fresh ServerSession on `pool`, reduced in shard order, as
// tools/ldp_aggregate does.
Result<api::ServerSession> IngestShards(const data::Dataset& dataset,
                                        const std::vector<std::string>& shards,
                                        ThreadPool* pool,
                                        stream::MultiShardSummary* summary) {
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  if (!config.ok()) return config.status();
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) return pipeline.status();
  auto session = pipeline.value().NewServer();
  if (!session.ok()) return session.status();
  std::vector<std::string> paths;
  for (size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(::testing::TempDir() + "/ldp_stream_e2e_" +
                    std::to_string(::getpid()) + "_" + std::to_string(s) +
                    ".ldps");
    std::ofstream out(paths.back(), std::ios::binary);
    out.write(shards[s].data(), static_cast<std::streamsize>(shards[s].size()));
  }
  const Status ingested = session.value().IngestInputs(paths, pool, summary);
  for (const std::string& path : paths) std::remove(path.c_str());
  if (!ingested.ok()) return ingested;
  return session;
}

void ExpectBitIdentical(const MixedAggregator& total,
                        const api::CollectionOutput& expected) {
  for (size_t j = 0; j < expected.numeric_columns.size(); ++j) {
    auto mean = total.EstimateMean(expected.numeric_columns[j]);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.estimated_means[j]) << "attribute " << j;
  }
  for (size_t c = 0; c < expected.categorical_columns.size(); ++c) {
    auto freqs = total.EstimateFrequencies(expected.categorical_columns[c]);
    ASSERT_TRUE(freqs.ok());
    ASSERT_EQ(freqs.value().size(), expected.estimated_frequencies[c].size());
    for (size_t v = 0; v < freqs.value().size(); ++v) {
      EXPECT_EQ(freqs.value()[v], expected.estimated_frequencies[c][v])
          << "attribute " << c << " value " << v;
    }
  }
}

// The same check against epoch 0 of a session.
void ExpectBitIdentical(const api::ServerSession& session,
                        const api::CollectionOutput& expected) {
  auto estimates = session.Estimate(0);
  ASSERT_TRUE(estimates.ok());
  EXPECT_EQ(estimates.value().numeric_attributes, expected.numeric_columns);
  EXPECT_EQ(estimates.value().means, expected.estimated_means);
  EXPECT_EQ(estimates.value().categorical_attributes,
            expected.categorical_columns);
  EXPECT_EQ(estimates.value().frequencies, expected.estimated_frequencies);
}

TEST(StreamEndToEndTest, ShardedIngestReproducesCollectProposedBitForBit) {
  const data::Dataset dataset = MakeData();
  const MixedTupleCollector collector = MakeCollector(dataset);

  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                             MechanismKind::kHybrid,
                                             FrequencyOracleKind::kOue, &pool);
  ASSERT_TRUE(expected.ok());

  const std::vector<std::string> shards =
      WriteShards(dataset, collector, kPoolThreads);
  ASSERT_GE(shards.size(), 2u);

  // Server reduces the shards with various thread counts — including more
  // ingest workers than shards — and always lands on the same bits.
  for (const unsigned server_threads : {0u, 3u, 16u}) {
    std::unique_ptr<ThreadPool> server_pool;
    if (server_threads > 0) {
      server_pool = std::make_unique<ThreadPool>(server_threads);
    }
    stream::MultiShardSummary summary;
    auto session = IngestShards(dataset, shards, server_pool.get(), &summary);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session.value().num_reports(0).value(), kRows);
    EXPECT_EQ(summary.total_reports, kRows);
    EXPECT_EQ(summary.total_rejected, 0u);
    ExpectBitIdentical(session.value(), expected.value());
  }
}

TEST(StreamEndToEndTest, SnapshotReductionReproducesCollectProposed) {
  const data::Dataset dataset = MakeData();
  const MixedTupleCollector collector = MakeCollector(dataset);

  constexpr unsigned kPoolThreads = 2;
  ThreadPool pool(kPoolThreads);
  auto expected = CollectProposed(dataset, kEpsilon, kSeed,
                                             MechanismKind::kHybrid,
                                             FrequencyOracleKind::kOue, &pool);
  ASSERT_TRUE(expected.ok());

  // Each shard is ingested on its own "machine", snapshotted to bytes,
  // decoded on the reducer, and merged in shard order.
  MixedAggregator total(&collector);
  for (const std::string& shard :
       WriteShards(dataset, collector, kPoolThreads)) {
    stream::ShardIngester ingester(&collector);
    ASSERT_TRUE(ingester.Feed(shard).ok());
    ASSERT_TRUE(ingester.Finish().ok());
    const std::string snapshot =
        stream::EncodeAggregatorSnapshot(ingester.aggregator());
    auto decoded = stream::DecodeAggregatorSnapshot(snapshot, &collector);
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(total.Merge(decoded.value()).ok());
  }
  EXPECT_EQ(total.num_reports(), kRows);
  ExpectBitIdentical(total, expected.value());
}

TEST(StreamEndToEndTest, CollectProposedIsDeterministicPerThreadCount) {
  const data::Dataset dataset = MakeData();
  ThreadPool pool_a(3), pool_b(3);
  auto run_a = CollectProposed(dataset, kEpsilon, kSeed,
                                          MechanismKind::kHybrid,
                                          FrequencyOracleKind::kOue, &pool_a);
  auto run_b = CollectProposed(dataset, kEpsilon, kSeed,
                                          MechanismKind::kHybrid,
                                          FrequencyOracleKind::kOue, &pool_b);
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());
  EXPECT_EQ(run_a.value().estimated_means, run_b.value().estimated_means);
  EXPECT_EQ(run_a.value().estimated_frequencies,
            run_b.value().estimated_frequencies);
}

TEST(StreamEndToEndTest, CorruptShardDoesNotPoisonTheRun) {
  const data::Dataset dataset = MakeData();
  const MixedTupleCollector collector = MakeCollector(dataset);
  std::vector<std::string> shards = WriteShards(dataset, collector, 1);
  ASSERT_FALSE(shards.empty());
  // Append a garbage frame: the ingest keeps going and reports it rejected.
  std::string garbage;
  ASSERT_TRUE(stream::AppendFrame("garbage payload", &garbage).ok());
  shards.back() += garbage;
  stream::MultiShardSummary summary;
  auto session = IngestShards(dataset, shards, nullptr, &summary);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session.value().num_reports(0).value(), kRows);
  EXPECT_EQ(summary.total_rejected, 1u);
}

}  // namespace
}  // namespace ldp
