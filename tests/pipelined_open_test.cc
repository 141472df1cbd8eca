// Pipelined fresh opens and strand closes over real sockets: a fresh HELLO
// leaves with its shard's DATA and CLOSE_SHARD, its HELLO_OK or ERROR is
// read later, and each close runs as the last task on its shard's strand,
// sending SHARD_CLOSED itself when it can. Campaigns must still equal the
// file-based run bit for bit, a refused HELLO must surface at the next
// await, a hard stop must abandon a close that has not started, and a
// verdict must reach a peer that stopped reading exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint PipelineEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath(name);
  return endpoint;
}

std::vector<std::string> MakeStreams(const api::Pipeline& pipeline,
                                     size_t shards) {
  std::vector<std::string> streams;
  for (size_t s = 0; s < shards; ++s) {
    streams.push_back(MakeHonestStream(pipeline, /*seed=*/1300 + s));
  }
  return streams;
}

// The file-based reference: every stream fed straight into a session.
std::string DirectSnapshot(const api::Pipeline& pipeline,
                           const std::vector<std::string>& streams) {
  auto session = pipeline.NewServer();
  EXPECT_TRUE(session.ok());
  for (const std::string& stream : streams) {
    const size_t shard = session.value().OpenShard();
    EXPECT_TRUE(session.value().Feed(shard, stream).ok());
    EXPECT_TRUE(session.value().CloseShard(shard).ok());
  }
  return session.value().Snapshot();
}

Status SendFrames(net::CollectorClient* client, uint32_t channel,
                  const std::string& stream) {
  return client->Send(channel, stream.data() + stream::kStreamHeaderBytes,
                      stream.size() - stream::kStreamHeaderBytes);
}

// fleet_10k's shape on one connection: every shard after the first opens
// pipelined, and up to 64 closes stay in flight before the oldest verdict
// is read.
void RunWindowCampaign(unsigned ingest_threads) {
  SCOPED_TRACE(std::to_string(ingest_threads) + " ingest threads");
  constexpr size_t kShards = 160;
  constexpr size_t kWindow = 64;
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeStreams(pipeline, kShards);

  api::ServerSessionOptions session_options;
  session_options.ingest_threads = ingest_threads;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = kShards;
  auto server = net::ReportServer::Start(
      &session.value(), pipeline.header(),
      PipelineEndpoint("window" + std::to_string(ingest_threads)), options);
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::deque<uint32_t> pending;
  for (size_t s = 0; s < kShards; ++s) {
    uint32_t channel = 0;
    if (s > 0) {
      auto opened = client.value().OpenShard(pipeline.header(), s);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      channel = opened.value();
      EXPECT_EQ(client.value().resume_offset(channel), 0u);
    }
    ASSERT_TRUE(SendFrames(&client.value(), channel, streams[s]).ok());
    ASSERT_TRUE(client.value().CloseShardBegin(channel).ok());
    pending.push_back(channel);
    while (pending.size() > kWindow) {
      auto verdict = client.value().AwaitShardClosed(pending.front());
      pending.pop_front();
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_TRUE(verdict.value().status.ok());
      EXPECT_EQ(verdict.value().stats.accepted, kCorpusReports);
    }
  }
  for (uint32_t channel : pending) {
    auto verdict = client.value().AwaitShardClosed(channel);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict.value().status.ok());
  }
  EXPECT_EQ(client.value().open_shards(), 0u);
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.shards_merged, kShards);
  EXPECT_EQ(stats.hello_rejected, 0u);
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(session.value().Snapshot(), DirectSnapshot(pipeline, streams));
}

TEST(ReportServerPipelineTest, PipelinedOpensInAWindowAreBitIdentical) {
  RunWindowCampaign(/*ingest_threads=*/0);
  RunWindowCampaign(/*ingest_threads=*/2);
}

// A raw peer pipelines thousands of empty shards and reads nothing until
// the last is sent, so the server's socket buffer toward it fills: every
// verdict after that point falls back to the loop's flush. Each channel
// must still get one HELLO_OK, then one SHARD_CLOSED, and nothing more.
void RunUnreadPeer(unsigned ingest_threads) {
  SCOPED_TRACE(std::to_string(ingest_threads) + " ingest threads");
  constexpr uint32_t kShards = 3000;
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = ingest_threads;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(
      &session.value(), pipeline.header(),
      PipelineEndpoint("unread" + std::to_string(ingest_threads)),
      net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  auto socket = net::ConnectSocket(server.value()->endpoint());
  ASSERT_TRUE(socket.ok());
  std::string wire;
  for (uint32_t channel = 0; channel < kShards; ++channel) {
    net::HelloMessage hello;
    hello.channel = channel;
    hello.ordinal = channel;
    hello.fresh = true;
    hello.header_bytes = stream::EncodeStreamHeader(pipeline.header());
    ASSERT_TRUE(net::AppendMessage(net::MessageType::kHello,
                                   net::EncodeHello(hello), &wire)
                    .ok());
    net::CloseShardMessage close;
    close.channel = channel;
    ASSERT_TRUE(net::AppendMessage(net::MessageType::kCloseShard,
                                   net::EncodeCloseShard(close), &wire)
                    .ok());
  }
  ASSERT_TRUE(socket.value().SendAll(wire).ok());

  std::vector<int> hello_oks(kShards, 0);
  std::vector<int> verdicts(kShards, 0);
  for (uint32_t reply = 0; reply < 2 * kShards; ++reply) {
    net::MessageType type = net::MessageType::kError;
    std::string payload;
    auto got = net::RecvMessage(&socket.value(), &type, &payload,
                                /*deadline_ms=*/10000);
    ASSERT_TRUE(got.ok() && got.value()) << "reply " << reply;
    if (type == net::MessageType::kHelloOk) {
      auto ok = net::DecodeHelloOk(payload);
      ASSERT_TRUE(ok.ok());
      ASSERT_LT(ok.value().channel, kShards);
      ++hello_oks[ok.value().channel];
    } else {
      ASSERT_EQ(type, net::MessageType::kShardClosed);
      auto closed = net::DecodeShardClosed(payload);
      ASSERT_TRUE(closed.ok());
      const uint32_t channel = closed.value().channel;
      ASSERT_LT(channel, kShards);
      EXPECT_EQ(hello_oks[channel], 1) << "verdict before HELLO_OK";
      EXPECT_EQ(closed.value().code, 0) << closed.value().message;
      ++verdicts[channel];
    }
  }
  EXPECT_EQ(std::count(hello_oks.begin(), hello_oks.end(), 1),
            static_cast<long>(kShards));
  EXPECT_EQ(std::count(verdicts.begin(), verdicts.end(), 1),
            static_cast<long>(kShards));
  // Nothing else is on its way.
  net::MessageType type = net::MessageType::kError;
  std::string payload;
  auto extra = net::RecvMessage(&socket.value(), &type, &payload,
                                /*deadline_ms=*/200);
  EXPECT_FALSE(extra.ok() && extra.value()) << "an extra reply arrived";
  socket.value().Close();
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().shards_merged, kShards);
}

TEST(ReportServerPipelineTest, VerdictsReachAPeerThatStoppedReadingOnce) {
  RunUnreadPeer(/*ingest_threads=*/0);
  RunUnreadPeer(/*ingest_threads=*/2);
}

TEST(ReportServerPipelineTest, RefusedHelloSurfacesAtTheNextAwait) {
  // Ordinal 9 is outside the fleet: its pipelined HELLO leaves with the
  // close behind it, and the refusal is what the close's await returns.
  // The collector closes the connection, abandoning the channels still
  // streaming on it; every later call reports the same refusal.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeStreams(pipeline, 2);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 4;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         PipelineEndpoint("refused"), options);
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SendFrames(&client.value(), 0, streams[0]).ok());
  auto open = client.value().OpenShard(pipeline.header(), /*ordinal=*/1);
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(SendFrames(&client.value(), open.value(), streams[1]).ok());
  auto refused = client.value().OpenShard(pipeline.header(), /*ordinal=*/9);
  ASSERT_TRUE(refused.ok()) << "a pipelined open returns at once";
  ASSERT_TRUE(client.value().CloseShardBegin(refused.value()).ok());

  auto verdict = client.value().AwaitShardClosed(refused.value());
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kOutOfRange)
      << verdict.status().ToString();
  // The other channels are gone with the connection.
  const Status later = client.value().CloseShardBegin(open.value());
  EXPECT_EQ(later.code(), StatusCode::kOutOfRange) << later.ToString();

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_rejected, 1u);
  EXPECT_EQ(stats.shards_abandoned, 2u);
  EXPECT_EQ(stats.shards_merged, 0u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(ReportServerPipelineTest, FlippingTheFreshBitBreaksTheTag) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 1290);
  const std::string key = "campaign-key-31";
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = key;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         PipelineEndpoint("fresh_tag"),
                                         options);
  ASSERT_TRUE(server.ok());
  const std::string header_bytes =
      stream::EncodeStreamHeader(pipeline.header());

  // A tag signed for one value of the flag, sent with the other.
  for (const bool signed_fresh : {false, true}) {
    net::HelloMessage hello;
    hello.reporter_id = "user-7";
    hello.header_bytes = header_bytes;
    hello.auth_tag =
        net::ComputeHelloTag(key, hello.reporter_id, /*channel=*/0,
                             /*epoch=*/0, header_bytes, signed_fresh);
    hello.fresh = !signed_fresh;
    auto socket = net::ConnectSocket(server.value()->endpoint());
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 net::EncodeHello(hello))
                    .ok());
    net::MessageType type = net::MessageType::kHelloOk;
    std::string payload;
    auto got = net::RecvMessage(&socket.value(), &type, &payload);
    ASSERT_TRUE(got.ok() && got.value());
    EXPECT_EQ(type, net::MessageType::kError) << "signed fresh "
                                              << signed_fresh;
  }

  // The real client signs both kinds correctly.
  net::CollectorClientOptions client_options;
  client_options.reporter_id = "user-7";
  client_options.campaign_key = key;
  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0,
      client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().CloseShard(0).ok());
  auto open = client.value().OpenShard(pipeline.header(), /*ordinal=*/1);
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(SendFrames(&client.value(), open.value(), stream).ok());
  auto verdict = client.value().CloseShard(open.value());
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(verdict.value().status.ok());
  EXPECT_EQ(verdict.value().stats.accepted, kCorpusReports);
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_unauthenticated, 2u);
  EXPECT_EQ(stats.shards_merged, 2u);
}

// A durability hook that holds every close at its WAL record until opened,
// and remembers the shards it saw abandoned.
class GatedCloseHook : public net::ShardDurabilityHook {
 public:
  void OnShardOpen(size_t, uint64_t, uint32_t, const std::string&,
                   const std::string&) override {}
  void OnShardData(size_t, const char*, size_t) override {}
  void OnShardClose(size_t) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++held_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void OnShardAbandon(size_t shard) override {
    std::lock_guard<std::mutex> lock(mutex_);
    abandoned_.push_back(shard);
  }
  void WaitHeld(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_ >= count; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  std::vector<size_t> abandoned() {
    std::lock_guard<std::mutex> lock(mutex_);
    return abandoned_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t held_ = 0;
  bool open_ = false;
  std::vector<size_t> abandoned_;
};

TEST(ReportServerPipelineTest, HardStopAbandonsACloseNotYetStarted) {
  // Two closes hold both ingest workers at their WAL record, so the third
  // shard's close is queued but cannot start. A hard stop then lands: the
  // two started closes merge, the queued one abandons with its counters.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeStreams(pipeline, 3);
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = 2;
  session_options.metrics = &registry;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  GatedCloseHook hook;
  net::ReportServerOptions options;
  options.wal = &hook;
  options.journal = &journal;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         PipelineEndpoint("hard_stop"),
                                         options);
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  std::vector<uint32_t> channels = {0};
  for (uint64_t ordinal = 1; ordinal < streams.size(); ++ordinal) {
    auto opened = client.value().OpenShard(pipeline.header(), ordinal);
    ASSERT_TRUE(opened.ok());
    channels.push_back(opened.value());
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    ASSERT_TRUE(SendFrames(&client.value(), channels[s], streams[s]).ok());
  }
  ASSERT_TRUE(client.value().CloseShardBegin(channels[0]).ok());
  ASSERT_TRUE(client.value().CloseShardBegin(channels[1]).ok());
  hook.WaitHeld(2);
  ASSERT_TRUE(client.value().CloseShardBegin(channels[2]).ok());
  // Wait until the server has queued the third close.
  for (int i = 0; i < 4000; ++i) {
    size_t entered = 0;
    for (const obs::Event& event : journal.Events()) {
      if (event.kind == obs::EventKind::kMergeEnter) ++entered;
    }
    if (entered == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread stopper([&] { server.value()->Stop(/*drain=*/false); });
  // The stop cuts the connection before any verdict can be sent.
  auto cut = client.value().AwaitShardClosed(channels[0]);
  EXPECT_FALSE(cut.ok());
  hook.Open();
  stopper.join();

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged, 2u);
  EXPECT_EQ(stats.shards_discarded, 1u);
  EXPECT_EQ(hook.abandoned(), std::vector<size_t>{2});
  EXPECT_EQ(
      registry.GetCounter("ldp_session_shards_abandoned_total")->Value(), 1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 2 * kCorpusReports);
}

}  // namespace
}  // namespace ldp
