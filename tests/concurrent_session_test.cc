// Determinism and stress harness for concurrent intra-epoch ingest in
// api::ServerSession: a session with an ingest pool must reproduce the
// serial session — and the in-process Pipeline::Collect run — bit for bit at
// every thread count, under interleaved chunked feeds, multiple producer
// threads, and repeated runs; and the PrivacyAccountant must stay exact when
// AdvanceEpoch races other session calls. The TSan CI job runs this file to
// verify the absence of data races, so test bodies deliberately share
// nothing beyond the session under test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "stream/report_stream.h"
#include "stream_test_util.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kRows = 1000;
constexpr uint64_t kSeed = 77;
// Shard boundaries mirror a kPoolThreads-pooled run's ParallelFor chunks
// (threads x 4), the repo's bit-reproduction contract for sharded ingestion.
constexpr unsigned kPoolThreads = 2;
constexpr size_t kShards = kPoolThreads * 4;

data::Dataset MakeData() {
  auto dataset = data::MakeBrazilCensus(kRows, 3);
  EXPECT_TRUE(dataset.ok());
  return data::NormalizeNumeric(dataset.value());
}

api::Pipeline MakePipeline(const data::Dataset& dataset, uint32_t epochs) {
  auto config = api::PipelineConfig::FromSchema(dataset.schema(), kEpsilon);
  EXPECT_TRUE(config.ok());
  config.value().plan.epochs = epochs;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

api::ServerSession MakeServer(const api::Pipeline& pipeline,
                              unsigned ingest_threads) {
  api::ServerSessionOptions options;
  options.ingest_threads = ingest_threads;
  auto server = pipeline.NewServer(options);
  EXPECT_TRUE(server.ok());
  return std::move(server).value();
}

// One epoch's worth of shard streams whose boundaries split the population
// `num_shards` ways.
std::vector<std::string> WriteShards(const data::Dataset& dataset,
                                     const api::ClientSession& client,
                                     uint64_t seed, size_t num_shards) {
  const data::Schema& schema = dataset.schema();
  const uint32_t d = schema.num_columns();
  std::vector<std::string> shards;
  for (const IndexRange range : SplitRange(dataset.num_rows(), num_shards)) {
    std::string shard = client.EncodeHeader();
    MixedTuple tuple(d);
    for (uint64_t row = range.begin; row < range.end; ++row) {
      for (uint32_t col = 0; col < d; ++col) {
        if (schema.column(col).type == data::ColumnType::kNumeric) {
          tuple[col].numeric = dataset.numeric(row, col);
        } else {
          tuple[col].category = dataset.category(row, col);
        }
      }
      Rng rng = api::UserRng(seed, row);
      auto payload = client.EncodeReport(tuple, &rng);
      EXPECT_TRUE(payload.ok());
      EXPECT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

using ldp::testing::FeedShardsInterleaved;
using ldp::testing::NextLcg;

// Reference path: every shard fed as one chunk, closed immediately.
void FeedWholeShards(api::ServerSession* session,
                     const std::vector<std::string>& shards) {
  for (const std::string& bytes : shards) {
    const size_t shard = session->OpenShard();
    ASSERT_TRUE(session->Feed(shard, bytes).ok());
    ASSERT_TRUE(session->CloseShard(shard).ok());
  }
}

// Adversarially interleaved path: all shards open at once, fed round-robin
// in pseudo-random chunk sizes (so frame boundaries straddle chunks), closed
// in shard-id order. One producer thread.
void FeedInterleaved(api::ServerSession* session,
                     const std::vector<std::string>& shards,
                     uint64_t chunk_seed) {
  std::vector<size_t> ids;
  std::vector<const std::string*> streams;
  ids.reserve(shards.size());
  for (const std::string& shard : shards) {
    ids.push_back(session->OpenShard());
    streams.push_back(&shard);
  }
  ASSERT_TRUE(
      FeedShardsInterleaved(session, ids, streams, chunk_seed).ok());
  for (const size_t id : ids) {
    ASSERT_TRUE(session->CloseShard(id).ok());
  }
}

void ExpectSameEstimates(const api::ServerSession& a,
                         const api::ServerSession& b, uint32_t epoch) {
  auto ea = a.Estimate(epoch);
  auto eb = b.Estimate(epoch);
  ASSERT_TRUE(ea.ok() && eb.ok());
  EXPECT_EQ(ea.value().num_reports, eb.value().num_reports);
  EXPECT_EQ(ea.value().means, eb.value().means);
  EXPECT_EQ(ea.value().frequencies, eb.value().frequencies);
}

TEST(ConcurrentSessionTest, SnapshotsAreBitIdenticalToSerialAtAnyThreadCount) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);
  const std::string reference_snapshot = reference.Snapshot();

  for (const unsigned threads : {1u, 2u, 8u}) {
    api::ServerSession session = MakeServer(pipeline, threads);
    FeedInterleaved(&session, shards, /*chunk_seed=*/1000 + threads);
    EXPECT_EQ(session.Snapshot(), reference_snapshot)
        << "ingest_threads=" << threads;
    ExpectSameEstimates(session, reference, 0);
  }
}

TEST(ConcurrentSessionTest, MatchesInProcessCollectBitForBit) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  ThreadPool pool(kPoolThreads);
  auto expected = pipeline.Collect(dataset, kSeed, &pool);
  ASSERT_TRUE(expected.ok());

  api::ServerSession session = MakeServer(pipeline, 8);
  FeedInterleaved(&session, WriteShards(dataset, client.value(), kSeed,
                                        kShards),
                  /*chunk_seed=*/9);
  for (size_t j = 0; j < expected.value().numeric_columns.size(); ++j) {
    auto mean = session.EstimateMean(expected.value().numeric_columns[j], 0);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.value().estimated_means[j]);
  }
  for (size_t c = 0; c < expected.value().categorical_columns.size(); ++c) {
    auto freqs = session.EstimateFrequencies(
        expected.value().categorical_columns[c], 0);
    ASSERT_TRUE(freqs.ok());
    EXPECT_EQ(freqs.value(), expected.value().estimated_frequencies[c]);
  }
}

TEST(ConcurrentSessionTest, MultipleProducerThreadsReproduceTheSerialRun) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  api::ServerSession session = MakeServer(pipeline, 4);
  std::vector<size_t> ids;
  ids.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    ids.push_back(session.OpenShard());
  }
  // Each producer owns a disjoint pair of shards (per-shard call order must
  // be externally defined), feeding them in interleaved small chunks.
  constexpr size_t kProducers = 4;
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &session, &ids, &shards] {
      const size_t per_producer = shards.size() / kProducers;
      std::vector<size_t> mine;
      std::vector<const std::string*> streams;
      for (size_t i = 0; i < per_producer; ++i) {
        mine.push_back(ids[p * per_producer + i]);
        streams.push_back(&shards[p * per_producer + i]);
      }
      EXPECT_TRUE(FeedShardsInterleaved(&session, mine, streams,
                                        /*chunk_seed=*/555 + p,
                                        /*max_chunk=*/512)
                      .ok());
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const size_t id : ids) {
    ASSERT_TRUE(session.CloseShard(id).ok());
  }

  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, RepeatedRunsAreSchedulingIndependent) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  // Different chunkings, different runs, same pool size: the snapshot may
  // depend on none of it.
  std::string first;
  for (int run = 0; run < 3; ++run) {
    api::ServerSession session = MakeServer(pipeline, 8);
    FeedInterleaved(&session, shards, /*chunk_seed=*/7000 + run);
    if (run == 0) {
      first = session.Snapshot();
    } else {
      EXPECT_EQ(session.Snapshot(), first) << "run " << run;
    }
  }
}

TEST(ConcurrentSessionTest, NumericStreamsAreBitIdenticalToSerial) {
  // An all-numeric schema (the paper's Algorithm 4) sends only numeric
  // entries; the concurrency contract must hold there too.
  auto schema = data::Schema::Create({data::ColumnSpec::Numeric("x", -1, 1),
                                      data::ColumnSpec::Numeric("y", -1, 1),
                                      data::ColumnSpec::Numeric("z", -1, 1)});
  ASSERT_TRUE(schema.ok());
  auto config = api::PipelineConfig::FromSchema(schema.value(), kEpsilon);
  ASSERT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  ASSERT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  ASSERT_TRUE(client.ok());

  std::vector<std::string> shards;
  for (const IndexRange range : SplitRange(600, 4)) {
    std::string shard = client.value().EncodeHeader();
    for (uint64_t row = range.begin; row < range.end; ++row) {
      Rng rng = api::UserRng(kSeed, row);
      auto payload = client.value().EncodeReport(
          MixedTuple{AttributeValue::Numeric(0.5),
                     AttributeValue::Numeric(-0.25),
                     AttributeValue::Numeric(0.125)},
          &rng);
      ASSERT_TRUE(payload.ok());
      ASSERT_TRUE(stream::AppendFrame(payload.value(), &shard).ok());
    }
    shards.push_back(std::move(shard));
  }

  api::ServerSession reference = MakeServer(pipeline.value(), 0);
  FeedWholeShards(&reference, shards);
  api::ServerSession session = MakeServer(pipeline.value(), 4);
  FeedInterleaved(&session, shards, /*chunk_seed=*/17);
  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, AccountantIsExactUnderConcurrentAdvance) {
  const data::Dataset dataset = MakeData();
  constexpr uint32_t kPlannedEpochs = 4;
  const api::Pipeline pipeline = MakePipeline(dataset, kPlannedEpochs);
  api::ServerSession session = MakeServer(pipeline, 4);

  // Epoch 0 is charged at session creation; exactly kPlannedEpochs - 1 more
  // advances can succeed no matter how many threads race for them.
  std::atomic<int> advanced{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> contenders;
  for (int t = 0; t < 8; ++t) {
    contenders.emplace_back([&session, &advanced, &refused] {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const Status status = session.AdvanceEpoch();
        if (status.ok()) {
          advanced.fetch_add(1);
        } else {
          EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
          refused.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& contender : contenders) contender.join();

  EXPECT_EQ(advanced.load(), static_cast<int>(kPlannedEpochs) - 1);
  EXPECT_EQ(refused.load(), 8 * 8 - (static_cast<int>(kPlannedEpochs) - 1));
  EXPECT_EQ(session.num_epochs(), kPlannedEpochs);
  // The spend is exact — no double charge and no partial charge leaked from
  // a refused advance.
  EXPECT_EQ(session.epsilon_spent(), kPlannedEpochs * kEpsilon);
  EXPECT_FALSE(session.AdvanceEpoch().ok());
}

TEST(ConcurrentSessionTest, AdvanceEpochIsRefusedWhileFeedsAreInFlight) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 2);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  // The shard is open (its chunks may still be decoding on the pool):
  // advancing must refuse and charge nothing.
  EXPECT_FALSE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.epsilon_spent(), kEpsilon);
  ASSERT_TRUE(session.CloseShard(shard).ok());
  EXPECT_TRUE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
}

TEST(ConcurrentSessionTest, ShardStatsIsADrainPoint) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 4);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  // Immediately after the (asynchronous) Feed returns, the stats must
  // already cover every byte fed — ShardStats drains the shard's queue.
  auto stats = session.ShardStats(shard);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().accepted, kRows);
  EXPECT_EQ(stats.value().bytes, shards[0].size());
  ASSERT_TRUE(session.CloseShard(shard).ok());
}

TEST(ConcurrentSessionTest, AsyncFramingErrorPoisonsOnlyItsShard) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 2);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  api::ServerSession session = MakeServer(pipeline, 4);
  const size_t honest0 = session.OpenShard();
  const size_t poisoned = session.OpenShard();
  const size_t honest1 = session.OpenShard();
  ASSERT_TRUE(session.Feed(honest0, shards[0]).ok());
  ASSERT_TRUE(
      session.Feed(poisoned, std::string(64, 'x')).ok());  // bad magic
  ASSERT_TRUE(session.Feed(honest1, shards[1]).ok());

  // After the drain the worker-side framing error is sticky: later feeds
  // are refused without enqueueing.
  ASSERT_TRUE(session.ShardStats(poisoned).ok());
  EXPECT_FALSE(session.Feed(poisoned, std::string("more")).ok());
  EXPECT_FALSE(session.CloseShard(poisoned).ok());
  ASSERT_TRUE(session.CloseShard(honest0).ok());
  ASSERT_TRUE(session.CloseShard(honest1).ok());

  // The poisoned shard contributed nothing: totals equal the honest run.
  EXPECT_EQ(session.Snapshot(), reference.Snapshot());
  ExpectSameEstimates(session, reference, 0);
}

TEST(ConcurrentSessionTest, BackpressureBoundPreservesResultsWithoutDeadlock) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, kShards);

  api::ServerSession reference = MakeServer(pipeline, 0);
  FeedWholeShards(&reference, shards);

  // A bound far below the shard size forces Feed to block on the decoding
  // workers constantly; results must be unaffected and nothing may wedge.
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  options.max_pending_feed_bytes = 512;
  auto server = pipeline.NewServer(options);
  ASSERT_TRUE(server.ok());
  FeedInterleaved(&server.value(), shards, /*chunk_seed=*/31);
  EXPECT_EQ(server.value().Snapshot(), reference.Snapshot());
  ExpectSameEstimates(server.value(), reference, 0);
}

TEST(ConcurrentSessionTest, FeedAfterCloseFails) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteShards(dataset, client.value(), kSeed, 1);

  api::ServerSession session = MakeServer(pipeline, 2);
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, shards[0]).ok());
  ASSERT_TRUE(session.CloseShard(shard).ok());
  EXPECT_FALSE(session.Feed(shard, shards[0]).ok());
  EXPECT_FALSE(session.CloseShard(shard).ok());
}

}  // namespace
}  // namespace ldp
