// ServerSession::CloseShardAsync: a close is the last task on its shard's
// strand. On a session without ingest threads it runs inline, before the
// call returns; with a pool it runs on a worker behind the shard's queued
// chunks. CloseShard and AbandonShard are that same task plus a wait, so
// every mode closes through one path.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "stream_corpus_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

struct Closed {
  bool called = false;
  Status verdict;
  stream::ShardIngester::Stats stats;
  std::thread::id thread;
};

api::ServerSession::CloseDone Record(Closed* closed) {
  return [closed](const Status& verdict,
                  const stream::ShardIngester::Stats& stats) {
    closed->called = true;
    closed->verdict = verdict;
    closed->stats = stats;
    closed->thread = std::this_thread::get_id();
  };
}

std::string ReferenceSnapshot(const api::Pipeline& pipeline,
                              const std::string& stream) {
  auto session = pipeline.NewServer();
  EXPECT_TRUE(session.ok());
  const size_t shard = session.value().OpenShard();
  EXPECT_TRUE(session.value().Feed(shard, stream).ok());
  EXPECT_TRUE(session.value().CloseShard(shard).ok());
  return session.value().Snapshot();
}

TEST(ServerSessionStrandCloseTest, WithoutIngestThreadsTheCloseRunsInline) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 1400);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  const size_t shard = session.value().OpenShard();
  ASSERT_TRUE(session.value().Feed(shard, stream).ok());

  Closed closed;
  bool started = false;
  ASSERT_TRUE(session.value()
                  .CloseShardAsync(
                      shard,
                      [&started] {
                        started = true;
                        return Status::OK();
                      },
                      Record(&closed))
                  .ok());
  // The task ran on this thread before the call returned.
  EXPECT_TRUE(started);
  ASSERT_TRUE(closed.called);
  EXPECT_EQ(closed.thread, std::this_thread::get_id());
  EXPECT_TRUE(closed.verdict.ok()) << closed.verdict.ToString();
  EXPECT_EQ(closed.stats.accepted, kCorpusReports);
  EXPECT_EQ(session.value().Snapshot(), ReferenceSnapshot(pipeline, stream));
}

TEST(ServerSessionStrandCloseTest, WithAPoolTheCloseQueuesBehindItsChunks) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 1401);
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  auto session = pipeline.NewServer(options);
  ASSERT_TRUE(session.ok());
  const size_t shard = session.value().OpenShard();
  // Byte-sized chunks: the close must wait for every one of them.
  for (char byte : stream) {
    ASSERT_TRUE(session.value().Feed(shard, &byte, 1).ok());
  }
  Closed closed;
  ASSERT_TRUE(
      session.value().CloseShardAsync(shard, nullptr, Record(&closed)).ok());
  // Later calls see the shard closed at once, merged or not.
  EXPECT_EQ(session.value().Feed(shard, "x", 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value().CloseShardAsync(shard, nullptr, nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value().CloseShard(shard).code(),
            StatusCode::kFailedPrecondition);
  // ShardStats drains the strand, close task included.
  auto stats = session.value().ShardStats(shard);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().accepted, kCorpusReports);
  ASSERT_TRUE(closed.called);
  EXPECT_NE(closed.thread, std::this_thread::get_id());
  EXPECT_TRUE(closed.verdict.ok()) << closed.verdict.ToString();
  EXPECT_EQ(closed.stats.accepted, kCorpusReports);
  EXPECT_EQ(closed.stats.bytes, stream.size());
  EXPECT_EQ(session.value().Snapshot(), ReferenceSnapshot(pipeline, stream));
}

TEST(ServerSessionStrandCloseTest, ARefusedStartAbandonsTheShard) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 1402);
  for (const unsigned threads : {0u, 2u}) {
    api::ServerSessionOptions options;
    options.ingest_threads = threads;
    auto session = pipeline.NewServer(options);
    ASSERT_TRUE(session.ok());
    const size_t shard = session.value().OpenShard();
    ASSERT_TRUE(session.value().Feed(shard, stream).ok());
    Closed closed;
    ASSERT_TRUE(session.value()
                    .CloseShardAsync(
                        shard,
                        [] { return Status::FailedPrecondition("stopping"); },
                        Record(&closed))
                    .ok());
    // ShardStats waits out the strand, close task included.
    auto stats = session.value().ShardStats(shard);
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(closed.called) << threads << " threads";
    EXPECT_EQ(closed.verdict.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(closed.verdict.message(), "stopping");
    // An abandoned shard keeps its decode statistics and contributes
    // nothing.
    EXPECT_EQ(closed.stats.accepted, kCorpusReports);
    EXPECT_EQ(stats.value().accepted, kCorpusReports);
    auto reports = session.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), 0u) << threads << " threads";
  }
}

TEST(ServerSessionStrandCloseTest, AbandonShardGoesThroughTheSameTask) {
  const api::Pipeline pipeline =
      MakeCorpusPipeline(/*numeric=*/false, /*epochs=*/2);
  const std::string stream = MakeHonestStream(pipeline, 1403);
  for (const unsigned threads : {0u, 2u}) {
    api::ServerSessionOptions options;
    options.ingest_threads = threads;
    auto session = pipeline.NewServer(options);
    ASSERT_TRUE(session.ok());
    const size_t shard = session.value().OpenShard();
    ASSERT_TRUE(session.value().Feed(shard, stream).ok());
    auto abandoned = session.value().AbandonShard(shard);
    ASSERT_TRUE(abandoned.ok());
    EXPECT_EQ(abandoned.value().accepted, kCorpusReports);
    EXPECT_EQ(session.value().AbandonShard(shard).status().code(),
              StatusCode::kFailedPrecondition);
    // No shard is left open: the epoch advances.
    EXPECT_TRUE(session.value().AdvanceEpoch().ok());
    auto reports = session.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace ldp
