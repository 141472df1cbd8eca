// Multi-epoch ServerSession behavior: per-epoch aggregates that reproduce
// the in-process pipeline bit for bit across >= 2 shards, privacy accounting
// that sums ε across epochs and refuses over-plan collection, session
// snapshots that round-trip and merge epoch-aligned, and the IngestInputs
// bulk loader.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/wire.h"
#include "data/census.h"
#include "data/dataset.h"
#include "data/encode.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kRows = 1500;
// One distinct master seed per collection epoch, as a deployment would use.
constexpr uint64_t kEpochSeeds[] = {101, 202};
// Shards per epoch; the sums are exact, so any count reproduces the pooled
// run.
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

// One epoch's worth of shard streams whose boundaries split the population
// `num_shards` ways.
std::vector<std::string> WriteEpochShards(const data::Dataset& dataset,
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

void FeedEpoch(api::ServerSession* session,
               const std::vector<std::string>& shards) {
  for (const std::string& bytes : shards) {
    const size_t shard = session->OpenShard();
    ASSERT_TRUE(session->Feed(shard, bytes).ok());
    ASSERT_TRUE(session->CloseShard(shard).ok());
  }
}

// Writes `bytes` to a scratch file unique to this process; returns its path.
std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/ldp_server_session_" +
                           std::to_string(::getpid()) + "_" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

void ExpectEpochMatchesCollect(const api::ServerSession& session,
                               uint32_t epoch,
                               const api::CollectionOutput& expected) {
  for (size_t j = 0; j < expected.numeric_columns.size(); ++j) {
    auto mean =
        session.EstimateMean(expected.numeric_columns[j], epoch);
    ASSERT_TRUE(mean.ok());
    EXPECT_EQ(mean.value(), expected.estimated_means[j]);
  }
  for (size_t c = 0; c < expected.categorical_columns.size(); ++c) {
    auto freqs =
        session.EstimateFrequencies(expected.categorical_columns[c], epoch);
    ASSERT_TRUE(freqs.ok());
    EXPECT_EQ(freqs.value(), expected.estimated_frequencies[c]);
  }
}

TEST(ServerSessionTest, TwoEpochShardedRunMatchesCollectAndSumsEpsilon) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  api::ServerSession& session = server.value();

  EXPECT_EQ(session.current_epoch(), 0u);
  EXPECT_EQ(session.epsilon_spent(), kEpsilon);

  FeedEpoch(&session, WriteEpochShards(dataset, client.value(),
                                       kEpochSeeds[0], kShards));
  ASSERT_TRUE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.current_epoch(), 1u);
  FeedEpoch(&session, WriteEpochShards(dataset, client.value(),
                                       kEpochSeeds[1], kShards));

  // The accountant reports the summed spend of both epochs.
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
  EXPECT_EQ(session.accountant().lifetime_budget(), 2 * kEpsilon);

  // Each epoch is bit-identical to the single-process pipeline at its seed.
  ThreadPool pool(kPoolThreads);
  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    auto expected =
        pipeline.Collect(dataset, kEpochSeeds[epoch], &pool);
    ASSERT_TRUE(expected.ok());
    auto reports = session.num_reports(epoch);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), kRows);
    ExpectEpochMatchesCollect(session, epoch, expected.value());
  }

  // The plan is exhausted: a third epoch would exceed the lifetime budget.
  EXPECT_FALSE(session.AdvanceEpoch().ok());
  EXPECT_EQ(session.num_epochs(), 2u);
  EXPECT_EQ(session.epsilon_spent(), 2 * kEpsilon);
}

TEST(ServerSessionTest, AdvanceRequiresClosedShards) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 3);
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  const size_t shard = server.value().OpenShard();
  EXPECT_FALSE(server.value().AdvanceEpoch().ok());
  ASSERT_TRUE(server.value().Feed(shard, std::string()).ok());
  // Closing an empty shard fails (no header) but frees the slot...
  EXPECT_FALSE(server.value().CloseShard(shard).ok());
  // ...so the epoch can advance, and the failed shard contributed nothing.
  EXPECT_TRUE(server.value().AdvanceEpoch().ok());
  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
  // Shard ids are never reused across epochs: the stale epoch-0 id errors
  // instead of feeding a fresh shard, and new shards get fresh ids.
  EXPECT_FALSE(server.value().Feed(shard, std::string("x")).ok());
  EXPECT_GT(server.value().OpenShard(), shard);
}

TEST(ServerSessionTest, SessionSnapshotRoundTripsAndMergesEpochAligned) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  const std::vector<std::string> epoch0 =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2);
  const std::vector<std::string> epoch1 =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[1], 2);

  // Reference: one session that saw everything.
  auto reference = pipeline.NewServer();
  ASSERT_TRUE(reference.ok());
  FeedEpoch(&reference.value(), epoch0);
  ASSERT_TRUE(reference.value().AdvanceEpoch().ok());
  FeedEpoch(&reference.value(), epoch1);

  // Split deployment: two shard servers, each owning half of every epoch's
  // shards, snapshot their sessions; a reducer merges them.
  auto left = pipeline.NewServer();
  auto right = pipeline.NewServer();
  ASSERT_TRUE(left.ok() && right.ok());
  FeedEpoch(&left.value(), {epoch0[0]});
  ASSERT_TRUE(left.value().AdvanceEpoch().ok());
  FeedEpoch(&left.value(), {epoch1[0]});
  FeedEpoch(&right.value(), {epoch0[1]});
  ASSERT_TRUE(right.value().AdvanceEpoch().ok());
  FeedEpoch(&right.value(), {epoch1[1]});

  auto reducer = pipeline.NewServer();
  ASSERT_TRUE(reducer.ok());
  ASSERT_TRUE(reducer.value().Merge(left.value().Snapshot()).ok());
  ASSERT_TRUE(reducer.value().Merge(right.value().Snapshot()).ok());
  EXPECT_EQ(reducer.value().num_epochs(), 2u);
  EXPECT_EQ(reducer.value().epsilon_spent(), 2 * kEpsilon);

  for (uint32_t epoch = 0; epoch < 2; ++epoch) {
    auto expected_reports = reference.value().num_reports(epoch);
    auto merged_reports = reducer.value().num_reports(epoch);
    ASSERT_TRUE(expected_reports.ok() && merged_reports.ok());
    EXPECT_EQ(merged_reports.value(), expected_reports.value());
    auto expected = reference.value().Estimate(epoch);
    auto merged = reducer.value().Estimate(epoch);
    ASSERT_TRUE(expected.ok() && merged.ok());
    EXPECT_EQ(merged.value().means, expected.value().means);
    EXPECT_EQ(merged.value().frequencies, expected.value().frequencies);
  }

  // Corrupt / mismatched session snapshots are rejected without mutating
  // the reducer.
  std::string corrupt = left.value().Snapshot();
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(reducer.value().Merge(corrupt).ok());
  EXPECT_EQ(reducer.value().num_epochs(), 2u);
}

TEST(ServerSessionTest, SessionSnapshotMergeRespectsTheLifetimeBudget) {
  const data::Dataset dataset = MakeData();
  // The donor runs two epochs; the receiver's plan affords only one.
  const api::Pipeline two_epochs = MakePipeline(dataset, 2);
  auto client = two_epochs.NewClient();
  ASSERT_TRUE(client.ok());
  auto donor = two_epochs.NewServer();
  ASSERT_TRUE(donor.ok());
  FeedEpoch(&donor.value(),
            WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2));
  ASSERT_TRUE(donor.value().AdvanceEpoch().ok());
  FeedEpoch(&donor.value(),
            WriteEpochShards(dataset, client.value(), kEpochSeeds[1], 2));

  const api::Pipeline one_epoch = MakePipeline(dataset, 1);
  auto receiver = one_epoch.NewServer();
  ASSERT_TRUE(receiver.ok());
  EXPECT_FALSE(receiver.value().Merge(donor.value().Snapshot()).ok());
  EXPECT_EQ(receiver.value().num_epochs(), 1u);
  EXPECT_EQ(receiver.value().epsilon_spent(), kEpsilon);
}

TEST(ServerSessionTest, ReporterLedgersRoundTripThroughSnapshotMerge) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());

  // Epoch 0: alice ships two shards (one charge), bob one; epoch 1: alice
  // alone. The ledger after this run is the object under test.
  const std::vector<std::string> epoch0 =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 3);
  const std::vector<std::string> epoch1 =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[1], 1);
  const char* kEpoch0Reporters[] = {"alice", "alice", "bob"};

  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.ok());
  for (size_t s = 0; s < epoch0.size(); ++s) {
    auto shard = donor.value().OpenShard(kEpoch0Reporters[s]);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_TRUE(donor.value().Feed(shard.value(), epoch0[s]).ok());
    ASSERT_TRUE(donor.value().CloseShard(shard.value()).ok());
  }
  // Two alice shards in one epoch charge her ledger once.
  EXPECT_EQ(donor.value().accountant().Spent("alice"), kEpsilon);
  ASSERT_TRUE(donor.value().AdvanceEpoch().ok());
  {
    auto shard = donor.value().OpenShard("alice");
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(donor.value().Feed(shard.value(), epoch1[0]).ok());
    ASSERT_TRUE(donor.value().CloseShard(shard.value()).ok());
  }
  EXPECT_EQ(donor.value().accountant().Spent("alice"), 2 * kEpsilon);
  EXPECT_EQ(donor.value().accountant().Spent("bob"), kEpsilon);
  // anonymous plan + alice + bob
  EXPECT_EQ(donor.value().accountant().num_charged_reporters(), 3u);

  const std::string snapshot = donor.value().Snapshot();
  auto restored = pipeline.NewServer();
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value().Merge(snapshot).ok());
  EXPECT_EQ(restored.value().accountant().Spent("alice"), 2 * kEpsilon);
  EXPECT_EQ(restored.value().accountant().Spent("bob"), kEpsilon);
  EXPECT_EQ(restored.value().accountant().Refusals("alice"), 0u);
  // The v2 snapshot embeds the ledger section, so bit-equality here pins
  // the whole restored state — aggregates and accounting both.
  EXPECT_EQ(restored.value().Snapshot(), snapshot);

  // A snapshot truncated inside the ledger section mutates nothing.
  auto untouched = pipeline.NewServer();
  ASSERT_TRUE(untouched.ok());
  std::string torn = snapshot;
  torn.resize(torn.size() - 5);
  EXPECT_FALSE(untouched.value().Merge(torn).ok());
  EXPECT_EQ(untouched.value().accountant().Spent("alice"), 0.0);
  EXPECT_EQ(untouched.value().num_epochs(), 1u);
}

TEST(ServerSessionTest, MergedEdgesChargeAReporterOncePerEpoch) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2);

  // alice reports through two different collection edges in one epoch (a
  // reconnect that landed on another shard server). Each edge charges her
  // once; the reducer's union must not sum the two charges.
  auto left = pipeline.NewServer();
  auto right = pipeline.NewServer();
  ASSERT_TRUE(left.ok() && right.ok());
  auto left_shard = left.value().OpenShard("alice");
  ASSERT_TRUE(left_shard.ok());
  ASSERT_TRUE(left.value().Feed(left_shard.value(), shards[0]).ok());
  ASSERT_TRUE(left.value().CloseShard(left_shard.value()).ok());
  auto right_shard = right.value().OpenShard("alice");
  ASSERT_TRUE(right_shard.ok());
  ASSERT_TRUE(right.value().Feed(right_shard.value(), shards[1]).ok());
  ASSERT_TRUE(right.value().CloseShard(right_shard.value()).ok());

  auto reducer = pipeline.NewServer();
  ASSERT_TRUE(reducer.ok());
  ASSERT_TRUE(reducer.value().Merge(left.value().Snapshot()).ok());
  ASSERT_TRUE(reducer.value().Merge(right.value().Snapshot()).ok());
  EXPECT_EQ(reducer.value().accountant().Spent("alice"), kEpsilon);
  auto reports = reducer.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kRows);
}

TEST(ServerSessionTest, LegacyV1SnapshotIsRefused) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.ok());
  FeedEpoch(&donor.value(),
            WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 1));

  // Fabricate the bytes a pre-ledger release would have written: version 1
  // in the preamble and no trailing ledger section. The donor is fully
  // anonymous, so its ledger section has a fixed shape we can strip: u32
  // reporter count, u16 empty id, u64 refusals, u32 entry count, and one
  // (u32 epoch, f64 spent) entry.
  std::string v1 = donor.value().Snapshot();
  constexpr size_t kAnonymousLedgerBytes = 4 + 2 + 8 + 4 + (4 + 8);
  ASSERT_GT(v1.size(), kAnonymousLedgerBytes);
  v1.resize(v1.size() - kAnonymousLedgerBytes);
  v1[4] = 1;
  v1[5] = 0;

  // Only the current version is read: the v1 snapshot is refused and the
  // receiver is left untouched.
  auto receiver = pipeline.NewServer();
  ASSERT_TRUE(receiver.ok());
  const Status merged = receiver.value().Merge(v1);
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument) << merged.ToString();
  auto reports = receiver.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
  EXPECT_EQ(receiver.value().num_epochs(), 1u);
}

// Byte offsets in a one- or two-epoch 'LDPE' snapshot: the preamble (u32
// magic, u16 version, u8 kind, u8 mechanism, u8 oracle, u64 schema hash,
// f64 ε, u32 epochs), then per epoch a u64 size and its 'LDPA' section.
constexpr size_t kFirstSectionAt = 4 + 2 + 1 + 1 + 1 + 8 + 8 + 4 + 8;

TEST(ServerSessionTest, OlderSnapshotVersionsAreRefusedByNumber) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2);
  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.ok());
  FeedEpoch(&donor.value(), {shards[0]});
  auto receiver = pipeline.NewServer();
  ASSERT_TRUE(receiver.ok());
  FeedEpoch(&receiver.value(), {shards[1]});
  const std::string before = receiver.value().Snapshot();

  // A version-2 'LDPE' (f64 sums inside) is refused before its epochs are
  // read.
  std::string v2 = donor.value().Snapshot();
  v2[4] = 2;
  Status merged = receiver.value().Merge(v2);
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(merged.message(), "unsupported session snapshot version 2");
  EXPECT_EQ(receiver.value().Snapshot(), before);

  // A current 'LDPE' wrapping a version-1 'LDPA' section is refused too.
  std::string v1_section = donor.value().Snapshot();
  v1_section[kFirstSectionAt + 4] = 1;
  merged = receiver.value().Merge(v1_section);
  EXPECT_EQ(merged.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(merged.message(), "unsupported aggregator snapshot version 1");
  EXPECT_EQ(receiver.value().Snapshot(), before);
}

TEST(ServerSessionTest, OverflowingSnapshotMergeChangesNothing) {
  // A two-epoch peer whose epoch 0 would merge cleanly but whose epoch 1
  // holds ~2^64 reports: the merge is refused, and epoch 0 is not merged
  // either.
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 2);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2);
  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.value().AdvanceEpoch().ok());
  std::string peer = donor.value().Snapshot();
  auto receiver = pipeline.NewServer();
  ASSERT_TRUE(receiver.ok());
  FeedEpoch(&receiver.value(), {shards[0]});
  ASSERT_TRUE(receiver.value().AdvanceEpoch().ok());
  FeedEpoch(&receiver.value(), {shards[1]});
  const std::string before = receiver.value().Snapshot();

  const MixedTupleCollector& collector = pipeline.mixed_collector();
  const uint32_t d = collector.dimension();
  std::vector<std::vector<uint64_t>> supports(d);
  for (uint32_t j = 0; j < d; ++j) {
    if (collector.oracle_for(j) != nullptr) {
      supports[j].assign(collector.oracle_for(j)->SupportSize(), 0);
    }
  }
  auto huge = MixedAggregator::FromParts(
      &collector, ~uint64_t{0} - 1, std::vector<uint64_t>(d, 0),
      std::vector<NumericSum>(d, 0), supports);
  ASSERT_TRUE(huge.ok());
  const std::string section = stream::EncodeAggregatorSnapshot(huge.value());
  // Epoch 1's section follows epoch 0's (equal shapes, so equal sizes).
  const size_t second_at = kFirstSectionAt + section.size() + 8;
  ASSERT_EQ(peer.compare(second_at, 4, "LDPA"), 0);
  peer.replace(second_at, section.size(), section);

  const Status merged = receiver.value().Merge(peer);
  EXPECT_EQ(merged.code(), StatusCode::kOutOfRange) << merged.ToString();
  EXPECT_EQ(receiver.value().Snapshot(), before);
}

TEST(ServerSessionTest, IngestInputsMatchesTheSameInputsAppliedInOrder) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 3);
  const std::vector<IndexRange> ranges = SplitRange(kRows, 3);

  // The middle input is a peer's session snapshot over the second shard.
  auto peer = pipeline.NewServer();
  ASSERT_TRUE(peer.ok());
  FeedEpoch(&peer.value(), {shards[1]});
  const std::vector<std::string> inputs = {shards[0], peer.value().Snapshot(),
                                           shards[2]};

  // Reference: the same inputs applied in order, one call at a time.
  auto reference = pipeline.NewServer();
  ASSERT_TRUE(reference.ok());
  FeedEpoch(&reference.value(), {inputs[0]});
  ASSERT_TRUE(reference.value().Merge(inputs[1]).ok());
  FeedEpoch(&reference.value(), {inputs[2]});

  const std::vector<std::string> paths = {WriteTempFile("a.ldps", inputs[0]),
                                          WriteTempFile("b.ldpe", inputs[1]),
                                          WriteTempFile("c.ldps", inputs[2])};
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  ThreadPool pool(3);
  stream::MultiShardSummary summary;
  const Status ingested = server.value().IngestInputs(paths, &pool, &summary);
  for (const std::string& path : paths) std::remove(path.c_str());
  ASSERT_TRUE(ingested.ok()) << ingested.ToString();
  EXPECT_EQ(server.value().Snapshot(), reference.value().Snapshot());

  ASSERT_EQ(summary.shards.size(), 3u);
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < 3; ++i) {
    const stream::ShardIngestOutcome& outcome = summary.shards[i];
    EXPECT_EQ(outcome.source, paths[i]);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.stats.bytes, inputs[i].size()) << i;
    EXPECT_EQ(outcome.stats.accepted, ranges[i].end - ranges[i].begin) << i;
    // A session snapshot carries aggregates, not frames.
    EXPECT_EQ(outcome.stats.frames, i == 1 ? 0 : outcome.stats.accepted) << i;
    EXPECT_EQ(outcome.stats.rejected, 0u) << i;
    total_bytes += inputs[i].size();
  }
  EXPECT_EQ(summary.total_reports, kRows);
  EXPECT_EQ(summary.total_rejected, 0u);
  EXPECT_EQ(summary.total_bytes, total_bytes);
}

TEST(ServerSessionTest, IngestInputsRefusesUnknownInputsAndMergesNothing) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> shards =
      WriteEpochShards(dataset, client.value(), kEpochSeeds[0], 2);
  const std::vector<IndexRange> ranges = SplitRange(kRows, 2);
  const uint64_t good_reports = ranges[1].end - ranges[1].begin;

  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  FeedEpoch(&server.value(), {shards[0]});
  const std::string before = server.value().Snapshot();

  // A bare aggregator snapshot: 'LDPA' is only an epoch section of 'LDPE'.
  stream::ShardIngester ingester(&pipeline.mixed_collector());
  ASSERT_TRUE(ingester.Feed(shards[1]).ok());
  ASSERT_TRUE(ingester.Finish().ok());
  const std::string ldpa =
      stream::EncodeAggregatorSnapshot(ingester.aggregator());
  EXPECT_EQ(server.value().Merge(ldpa).code(), StatusCode::kInvalidArgument);

  const std::string good = WriteTempFile("good.ldps", shards[1]);
  const struct {
    const char* name;
    std::string path;
    StatusCode code;
  } kCases[] = {
      {"ldpa", WriteTempFile("bare.ldpa", ldpa), StatusCode::kInvalidArgument},
      {"unknown magic", WriteTempFile("unknown.bin", "XXXX not an input"),
       StatusCode::kInvalidArgument},
      {"missing", ::testing::TempDir() + "/ldp_server_session_missing_" +
                      std::to_string(::getpid()),
       StatusCode::kIoError},
  };
  ThreadPool pool(3);
  for (const auto& bad : kCases) {
    stream::MultiShardSummary summary;
    const Status status =
        server.value().IngestInputs({good, bad.path}, &pool, &summary);
    EXPECT_EQ(status.code(), bad.code) << bad.name << ": " << status.ToString();
    EXPECT_NE(status.message().find(bad.path), std::string::npos)
        << bad.name << ": " << status.ToString();
    // The good input loaded, but nothing merged.
    EXPECT_EQ(server.value().Snapshot(), before) << bad.name;
    ASSERT_EQ(summary.shards.size(), 2u) << bad.name;
    EXPECT_TRUE(summary.shards[0].status.ok()) << bad.name;
    EXPECT_EQ(summary.shards[0].stats.accepted, good_reports) << bad.name;
    EXPECT_EQ(summary.shards[1].source, bad.path) << bad.name;
    EXPECT_EQ(summary.shards[1].status.code(), bad.code) << bad.name;
    EXPECT_EQ(summary.total_reports, good_reports) << bad.name;
    std::remove(bad.path.c_str());
  }
  std::remove(good.c_str());
}

TEST(ServerSessionTest, EstimateChecksEpochBounds) {
  const data::Dataset dataset = MakeData();
  const api::Pipeline pipeline = MakePipeline(dataset, 1);
  auto server = pipeline.NewServer();
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value().num_reports(1).ok());
  EXPECT_FALSE(server.value().EstimateMean(0, 1).ok());
  EXPECT_FALSE(server.value().Estimate(1).ok());
  EXPECT_TRUE(server.value().Estimate(0).ok());
}

TEST(ServerSessionTest, RefusesOracleReportsTheWireCannotCount) {
  // A mixed frame counts an oracle payload in a u16. HE emits one value per
  // domain value, so at domain 70,000 its frames would be undecodable:
  // both session kinds refuse such a schema up front, naming the attribute,
  // and so does in-process Collect, which folds the frames a client sends.
  auto pipeline_for = [](uint32_t domain) {
    api::PipelineConfig config;
    config.attributes = {MixedAttribute::Numeric(),
                         MixedAttribute::Categorical(domain)};
    config.epsilon = kEpsilon;
    config.oracle = FrequencyOracleKind::kHe;
    auto pipeline = api::Pipeline::Create(std::move(config));
    EXPECT_TRUE(pipeline.ok());
    return std::move(pipeline).value();
  };
  const api::Pipeline too_wide = pipeline_for(70000);
  const auto client = too_wide.NewClient();
  const auto server = too_wide.NewServer();
  ASSERT_FALSE(client.ok());
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(client.status().message().find("attribute 1"), std::string::npos)
      << client.status().message();
  EXPECT_EQ(server.status(), client.status());
  auto dataset_for = [](uint32_t domain) {
    auto schema = data::Schema::Create(
        {data::ColumnSpec::Numeric("x", -1, 1),
         data::ColumnSpec::Categorical("c", domain)});
    EXPECT_TRUE(schema.ok());
    data::Dataset dataset(std::move(schema).value());
    dataset.Resize(8);
    for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
      dataset.set_numeric(row, 0, 0.5);
      dataset.set_category(row, 1, domain - 1);
    }
    return dataset;
  };
  const auto collected = too_wide.Collect(dataset_for(70000), 5);
  ASSERT_FALSE(collected.ok());
  EXPECT_EQ(collected.status(), client.status());

  // Domain 65,535 is the widest that still round-trips.
  const api::Pipeline widest = pipeline_for(65535);
  EXPECT_TRUE(widest.Collect(dataset_for(65535), 5).ok());
  auto widest_client = widest.NewClient();
  auto widest_server = widest.NewServer();
  ASSERT_TRUE(widest_client.ok());
  ASSERT_TRUE(widest_server.ok());
  Rng rng(3);
  std::string stream = widest_client.value().EncodeHeader();
  constexpr int kReports = 6;
  for (int i = 0; i < kReports; ++i) {
    const auto report = widest_client.value().EncodeReport(
        {AttributeValue::Numeric(0.5), AttributeValue::Categorical(65534)},
        &rng);
    ASSERT_TRUE(report.ok());
    internal_wire::PutU32(&stream,
                          static_cast<uint32_t>(report.value().size()));
    stream += report.value();
  }
  api::ServerSession& session = widest_server.value();
  const size_t shard = session.OpenShard();
  ASSERT_TRUE(session.Feed(shard, stream).ok());
  ASSERT_TRUE(session.CloseShard(shard).ok());
  const auto ingested = session.num_reports(0);
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(ingested.value(), static_cast<uint64_t>(kReports));
}

}  // namespace
}  // namespace ldp
