// Adversarial frame corpus for the stream stack, replayed through
// api::ServerSession::Feed serially AND concurrently (the corpus table
// itself lives in stream_corpus_util.h, shared with the socket-transport
// replay in net_fault_test.cc): truncated, oversized, bit-flipped, and
// protocol-mismatched mutations of valid mixed-schema and all-numeric
// streams. The contract under attack: payload-level corruption only advances the
// `rejected` counter (honest frames in the same shard still count),
// framing/header-level corruption poisons exactly its own shard (which
// then contributes nothing), and a concurrent session produces
// byte-identical snapshots and stats to the serial one even on hostile
// input. The TSan CI job runs this file too.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/mixed_collector.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "stream_test_util.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

using ldp::testing::kStreamCorpus;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;
using Outcome = ldp::testing::CorpusOutcome;
using CorpusCase = ldp::testing::CorpusCase;

constexpr uint64_t kReports = ldp::testing::kCorpusReports;
constexpr uint64_t kSeed = 33;

using ldp::testing::FeedShardsInterleaved;

// Feeds `bytes` into shard `shard` in pseudo-random chunks, ignoring the
// per-call status (poisoned shards return sticky errors mid-way; the close
// status is the verdict that matters).
void FeedChunked(api::ServerSession* session, size_t shard,
                 const std::string& bytes, uint64_t chunk_seed) {
  (void)FeedShardsInterleaved(session, {shard}, {&bytes}, chunk_seed,
                              /*max_chunk=*/256);
}

struct ShardVerdict {
  Status close_status;
  stream::ShardIngester::Stats stats;
};

// Replays the full corpus plus two honest shards into one session, all
// shards interleaved, and returns per-corpus-case verdicts (honest shards
// are asserted inline).
std::vector<ShardVerdict> ReplayCorpus(api::ServerSession* session,
                                       const std::vector<std::string>& mutants,
                                       const std::string& honest,
                                       uint64_t chunk_seed) {
  const size_t n = mutants.size();
  std::vector<size_t> ids(n + 2);
  for (size_t i = 0; i < n + 2; ++i) ids[i] = session->OpenShard();

  // Interleave every shard's chunks round-robin so hostile bytes decode
  // concurrently with honest ones; hostile sticky errors are expected.
  std::vector<const std::string*> streams;
  for (const std::string& mutant : mutants) streams.push_back(&mutant);
  streams.push_back(&honest);
  streams.push_back(&honest);
  (void)FeedShardsInterleaved(session, ids, streams, chunk_seed,
                              /*max_chunk=*/256);

  std::vector<ShardVerdict> verdicts(n);
  for (size_t i = 0; i < n; ++i) {
    auto stats = session->ShardStats(ids[i]);
    EXPECT_TRUE(stats.ok());
    verdicts[i].stats = stats.value();
    verdicts[i].close_status = session->CloseShard(ids[i]);
  }
  // Honest shards close cleanly whatever the corpus did around them.
  for (size_t i = n; i < n + 2; ++i) {
    auto stats = session->ShardStats(ids[i]);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().accepted, kReports);
    EXPECT_EQ(stats.value().rejected, 0u);
    EXPECT_TRUE(session->CloseShard(ids[i]).ok());
  }
  return verdicts;
}

void CheckVerdicts(const std::vector<ShardVerdict>& verdicts) {
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const CorpusCase& test_case = kStreamCorpus[i];
    const ShardVerdict& verdict = verdicts[i];
    if (test_case.outcome == Outcome::kPoisoned) {
      EXPECT_FALSE(verdict.close_status.ok()) << test_case.name;
    } else {
      EXPECT_TRUE(verdict.close_status.ok())
          << test_case.name << ": " << verdict.close_status.ToString();
    }
    EXPECT_EQ(verdict.stats.rejected, test_case.expected_rejected)
        << test_case.name;
    EXPECT_EQ(verdict.stats.accepted, test_case.expected_accepted)
        << test_case.name;
  }
}

TEST(StreamFuzzCorpusTest, CorpusOutcomesAreExactAndConcurrencyInvariant) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, kSeed);
  std::vector<std::string> mutants;
  for (const CorpusCase& test_case : kStreamCorpus) {
    mutants.push_back(test_case.mutate(honest));
  }

  api::ServerSessionOptions serial;
  auto serial_server = pipeline.NewServer(serial);
  ASSERT_TRUE(serial_server.ok());
  const std::vector<ShardVerdict> serial_verdicts =
      ReplayCorpus(&serial_server.value(), mutants, honest, /*chunk_seed=*/1);
  CheckVerdicts(serial_verdicts);
  // Only the two honest shards and the non-poisoned mutants reached the
  // epoch: corrupt frames are rejected, poisoned shards contribute nothing.
  uint64_t expected_epoch_reports = 2 * kReports;
  for (const CorpusCase& test_case : kStreamCorpus) {
    if (test_case.outcome == Outcome::kRejects) {
      expected_epoch_reports += test_case.expected_accepted;
    }
  }
  auto serial_reports = serial_server.value().num_reports(0);
  ASSERT_TRUE(serial_reports.ok());
  EXPECT_EQ(serial_reports.value(), expected_epoch_reports);

  for (const unsigned threads : {2u, 8u}) {
    api::ServerSessionOptions options;
    options.ingest_threads = threads;
    auto server = pipeline.NewServer(options);
    ASSERT_TRUE(server.ok());
    const std::vector<ShardVerdict> verdicts = ReplayCorpus(
        &server.value(), mutants, honest, /*chunk_seed=*/100 + threads);
    CheckVerdicts(verdicts);
    for (size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].close_status.code(),
                serial_verdicts[i].close_status.code())
          << kStreamCorpus[i].name;
      EXPECT_EQ(verdicts[i].stats.accepted, serial_verdicts[i].stats.accepted)
          << kStreamCorpus[i].name;
      EXPECT_EQ(verdicts[i].stats.rejected, serial_verdicts[i].stats.rejected)
          << kStreamCorpus[i].name;
      EXPECT_EQ(verdicts[i].stats.frames, serial_verdicts[i].stats.frames)
          << kStreamCorpus[i].name;
    }
    // The whole epoch state — honest totals included — is byte-identical
    // to the serial replay.
    EXPECT_EQ(server.value().Snapshot(), serial_server.value().Snapshot())
        << "ingest_threads=" << threads;
  }
}

TEST(StreamFuzzCorpusTest, RejectionBudgetPoisonsGarbageHeavyShards) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, kSeed);
  // Three corrupt frames, budget of two: the shard must fail even though
  // each rejection alone is tolerable.
  std::string hostile = honest;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream::AppendFrame(std::string(4, '\xEE'), &hostile).ok());
  }
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  options.ingest.max_rejected = 2;
  auto server = pipeline.NewServer(options);
  ASSERT_TRUE(server.ok());
  const size_t shard = server.value().OpenShard();
  FeedChunked(&server.value(), shard, hostile, /*chunk_seed=*/3);
  EXPECT_FALSE(server.value().CloseShard(shard).ok());
  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(StreamFuzzCorpusTest, StrictModePoisonsOnFirstRejectedPayload) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, kSeed);
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  options.ingest.max_rejected = 0;
  auto server = pipeline.NewServer(options);
  ASSERT_TRUE(server.ok());
  const size_t shard = server.value().OpenShard();
  FeedChunked(&server.value(), shard, ldp::testing::CorpusBitFlippedAttribute(honest),
              /*chunk_seed=*/4);
  EXPECT_FALSE(server.value().CloseShard(shard).ok());
  auto reports = server.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(StreamFuzzCorpusTest, NumericStreamCorpusBehavesLikeMixed) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/true);
  const std::string honest = MakeHonestStream(pipeline, kSeed);
  // A header still carrying the retired numeric stream kind byte (1).
  std::string retired_kind = honest;
  retired_kind[6] = 1;

  // All-numeric reports (every entry numeric) replay the header/framing/
  // payload corpus classes through the same mixed decoder.
  const struct {
    const char* name;
    Outcome outcome;
    uint64_t expected_rejected;
    std::string bytes;
  } kNumericCases[] = {
      {"schema-hash-flip", Outcome::kPoisoned, 0, ldp::testing::CorpusSchemaHashFlip(honest)},
      {"epsilon-mismatch", Outcome::kPoisoned, 0, ldp::testing::CorpusEpsilonMismatch(honest)},
      {"oversized-frame-length", Outcome::kPoisoned, 0,
       ldp::testing::CorpusOversizedFirstFrameLength(honest)},
      {"truncated-final-frame", Outcome::kPoisoned, 0,
       ldp::testing::CorpusTruncatedFinalFrame(honest)},
      {"bit-flipped-attribute", Outcome::kRejects, 1,
       ldp::testing::CorpusBitFlippedAttribute(honest)},
      {"zero-length-frame", Outcome::kRejects, 1,
       ldp::testing::CorpusZeroLengthFrameInserted(honest)},
      {"retired-numeric-kind", Outcome::kPoisoned, 0, retired_kind},
  };

  for (const unsigned threads : {0u, 4u}) {
    api::ServerSessionOptions options;
    options.ingest_threads = threads;
    auto server = pipeline.NewServer(options);
    ASSERT_TRUE(server.ok());
    for (const auto& test_case : kNumericCases) {
      const size_t shard = server.value().OpenShard();
      FeedChunked(&server.value(), shard, test_case.bytes,
                  /*chunk_seed=*/50 + threads);
      const Status closed = server.value().CloseShard(shard);
      auto stats = server.value().ShardStats(shard);
      ASSERT_TRUE(stats.ok());
      if (test_case.outcome == Outcome::kPoisoned) {
        EXPECT_FALSE(closed.ok()) << test_case.name;
      } else {
        EXPECT_TRUE(closed.ok()) << test_case.name;
        EXPECT_EQ(stats.value().rejected, test_case.expected_rejected)
            << test_case.name;
      }
    }
    // Only the kRejects shards contributed, minus their corrupt frames.
    auto reports = server.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), (kReports - 1) + kReports);
  }
}

}  // namespace
}  // namespace ldp
