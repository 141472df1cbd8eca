// End-to-end tests for the socket transport (net/report_server.h +
// net/client.h): loopback campaigns over Unix-domain and TCP sockets must
// reproduce a directly-fed ServerSession byte for byte — snapshots included
// — at every session thread count and regardless of which connection
// finishes first (the sums are exact, so completion order cannot show).
// Also covers a multi-epoch campaign over one connection (CLOSE,
// the operator's ReportServer::AdvanceEpoch, re-HELLO, down to the
// accountant's refusal) and hard-stop abandonment.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint TestUdsEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath(name);
  return endpoint;
}

net::Endpoint TestTcpEndpoint() {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;  // ephemeral; read back from the server
  return endpoint;
}

// Shard byte streams (header + frames) for `shards` ordinals, different
// report contents per shard.
std::vector<std::string> MakeShardStreams(const api::Pipeline& pipeline,
                                          size_t shards) {
  std::vector<std::string> streams;
  for (size_t s = 0; s < shards; ++s) {
    streams.push_back(MakeHonestStream(pipeline, /*seed=*/700 + s));
  }
  return streams;
}

// The reference: the same shard bytes fed straight into a session — what
// the file-based ldp_aggregate run would compute.
std::string DirectSessionSnapshot(const api::Pipeline& pipeline,
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

// Runs one racing campaign: every stream on its own connection/thread with
// its index as ordinal, `stagger_ms[i]` of sleep before its CLOSE (to force
// completion orders), against a server session with `ingest_threads`.
// Returns the resulting session snapshot.
std::string RunCampaign(const api::Pipeline& pipeline,
                        const net::Endpoint& endpoint,
                        const std::vector<std::string>& streams,
                        unsigned ingest_threads,
                        const std::vector<int>& stagger_ms) {
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = ingest_threads;
  auto session = pipeline.NewServer(session_options);
  EXPECT_TRUE(session.ok());
  net::ReportServerOptions server_options;
  server_options.acceptors = static_cast<unsigned>(streams.size());
  // The campaigns race real threads; the exact sums make the
  // snapshot-equality assertions deterministic whatever the close order.
  server_options.expected_shards = streams.size();
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, server_options);
  EXPECT_TRUE(server.ok());
  const net::Endpoint resolved = server.value()->endpoint();

  std::vector<std::thread> reporters;
  for (size_t s = 0; s < streams.size(); ++s) {
    reporters.emplace_back([&, s] {
      auto client = net::CollectorClient::Connect(resolved, pipeline.header(),
                                                  /*ordinal=*/s);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      // The stream bytes start with the header the HELLO already carried.
      ASSERT_TRUE(client.value()
                      .Send(/*channel=*/0,
                            streams[s].data() + stream::kStreamHeaderBytes,
                            streams[s].size() - stream::kStreamHeaderBytes)
                      .ok());
      if (stagger_ms[s] > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stagger_ms[s]));
      }
      auto summary = client.value().CloseShard(/*channel=*/0);
      ASSERT_TRUE(summary.ok()) << summary.status().ToString();
      EXPECT_TRUE(summary.value().status.ok())
          << summary.value().status.ToString();
      EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
      EXPECT_EQ(summary.value().stats.rejected, 0u);
    });
  }
  for (std::thread& reporter : reporters) reporter.join();
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, streams.size());
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(stats.hello_rejected, 0u);
  return session.value().Snapshot();
}

TEST(ReportServerTest, UdsCampaignIsBitIdenticalToDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::vector<int> no_stagger(streams.size(), 0);

  for (const unsigned threads : {0u, 2u}) {
    const std::string snapshot =
        RunCampaign(pipeline, TestUdsEndpoint("uds_campaign"), streams,
                    threads, no_stagger);
    EXPECT_EQ(snapshot, reference) << "ingest_threads=" << threads;
  }
}

TEST(ReportServerTest, TcpCampaignIsBitIdenticalToDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 3);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::string snapshot =
      RunCampaign(pipeline, TestTcpEndpoint(), streams,
                  /*ingest_threads=*/2, std::vector<int>(streams.size(), 0));
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, CompletionOrderDoesNotChangeTheSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 3);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  // Ordinal 0 asks to close LAST: ordinal 2's CLOSE arrives first and
  // merges first. The session still equals the ordinal-ordered one.
  const std::string snapshot =
      RunCampaign(pipeline, TestUdsEndpoint("reverse_close"), streams,
                  /*ingest_threads=*/0, /*stagger_ms=*/{120, 60, 0});
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, ExpectedShardsBarrierHoldsForLateConnectors) {
  // Ordinal 1 connects, streams, and closes BEFORE ordinal 0 has even
  // connected, so shard 1 merges first; the session still matches the
  // ordinal-ordered reference bit for bit.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  options.expected_shards = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("late_connector"), options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  std::thread early([&] {
    auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/1);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()
                    .Send(/*channel=*/0,
                          streams[1].data() + stream::kStreamHeaderBytes,
                          streams[1].size() - stream::kStreamHeaderBytes)
                    .ok());
    auto summary = client.value().CloseShard(/*channel=*/0);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
  });
  // Give ordinal 1 ample time to reach its CLOSE before 0 exists at all.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto late = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                            /*ordinal=*/0);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(late.value()
                  .Send(/*channel=*/0,
                        streams[0].data() + stream::kStreamHeaderBytes,
                        streams[0].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = late.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary.value().status.ok());
  early.join();
  server.value()->Stop(/*drain=*/true);

  EXPECT_EQ(session.value().Snapshot(), reference);

  // An ordinal outside the declared fleet is refused at HELLO.
  auto session2 = pipeline.NewServer();
  ASSERT_TRUE(session2.ok());
  auto server2 =
      net::ReportServer::Start(&session2.value(), pipeline.header(),
                               TestUdsEndpoint("fleet_bound"), options);
  ASSERT_TRUE(server2.ok());
  auto outside = net::CollectorClient::Connect(server2.value()->endpoint(),
                                               pipeline.header(),
                                               /*ordinal=*/2);
  EXPECT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kOutOfRange);
  server2.value()->Stop(/*drain=*/false);
}

TEST(ReportServerTest, BarrierWaitIsExemptFromTheIdleReap) {
  // Ordinal 0 sends its CLOSE while the session lock is held elsewhere for
  // several idle-timeout periods: an IngestInputs call blocked reading a
  // FIFO. The wait for the SHARD_CLOSED verdict is the server's own, so the
  // idle sweep must not reap the connection — the reporter still gets its
  // verdict once the lock is released, and the session holds both inputs.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const ldp::testing::ScopedTempDir dir("ldp_fifo_");
  const std::string fifo = dir.path() + "/held.ldps";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 2;
  options.idle_timeout_ms = 150;  // several sweeps elapse during the wait
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("verdict_idle"), options);
  ASSERT_TRUE(server.ok());

  // One DATA message carries the whole stream, sent by Send itself.
  const size_t payload = streams[0].size() - stream::kStreamHeaderBytes;
  net::CollectorClientOptions client_options;
  client_options.flush_bytes = payload;
  auto client =
      net::CollectorClient::Connect(server.value()->endpoint(),
                                    pipeline.header(), /*ordinal=*/0,
                                    client_options);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        streams[0].data() + stream::kStreamHeaderBytes,
                        payload)
                  .ok());
  // Wait until every DATA byte is fed (the server's first shard is id 0),
  // so the lock below stalls nothing but the close.
  for (int i = 0; i < 2000; ++i) {
    auto fed = session.value().ShardStats(0);
    ASSERT_TRUE(fed.ok());
    if (fed.value().accepted == kCorpusReports) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // IngestInputs takes the session lock, then blocks opening the FIFO until
  // a writer does; so once this open returns, the lock is held.
  Status ingested = Status::OK();
  std::thread holder(
      [&] { ingested = session.value().IngestInputs({fifo}, nullptr); });
  const int writer = ::open(fifo.c_str(), O_WRONLY);
  ASSERT_GE(writer, 0);
  const Status begun = client.value().CloseShardBegin(/*channel=*/0);
  ASSERT_TRUE(begun.ok()) << begun.ToString();
  // Hold the lock for ~4 idle-timeout periods, then hand IngestInputs the
  // other shard's stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_EQ(::write(writer, streams[1].data(), streams[1].size()),
            static_cast<ssize_t>(streams[1].size()));
  ::close(writer);
  holder.join();
  EXPECT_TRUE(ingested.ok()) << ingested.ToString();

  auto summary = client.value().AwaitShardClosed(/*channel=*/0);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok())
      << summary.value().status.ToString();
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ReporterDyingAfterCloseNeverWedgesTheBarrier) {
  // Ordinal 0 sends its whole stream, issues CLOSE_SHARD, and vanishes
  // without ever reading the verdict (its socket closes immediately, so
  // the server's reply flush can fail at any point around the dispatch).
  // Whatever interleaving the server loses — close enqueued with the reply
  // dropped, or the disconnect seen first and the shard abandoned — the
  // ordinal must finish, and ordinal 1's close merges.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("dying_closer"), options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    auto doomed = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/0);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed.value()
                    .Send(/*channel=*/0,
                          streams[0].data() + stream::kStreamHeaderBytes,
                          streams[0].size() - stream::kStreamHeaderBytes)
                    .ok());
    ASSERT_TRUE(doomed.value().CloseShardBegin(/*channel=*/0).ok());
    // Scope exit closes the socket without awaiting SHARD_CLOSED.
  }

  auto survivor = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                                /*ordinal=*/1);
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor.value()
                  .Send(/*channel=*/0,
                        streams[1].data() + stream::kStreamHeaderBytes,
                        streams[1].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = survivor.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok())
      << summary.value().status.ToString();
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged + stats.shards_abandoned, 2u);
  EXPECT_GE(stats.shards_merged, 1u);  // the survivor always merges
  if (stats.shards_merged == 2) {
    EXPECT_EQ(session.value().Snapshot(),
              DirectSessionSnapshot(pipeline, streams));
  }
}

TEST(ReportServerTest, CompletedOrdinalIsRefusedForTheRestOfTheEpoch) {
  // With a fleet size, each ordinal completes once per epoch: a repeat
  // HELLO is refused.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 1);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("completed_ordinal"), options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  auto first = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                             /*ordinal=*/1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value()
                  .Send(/*channel=*/0,
                        streams[0].data() + stream::kStreamHeaderBytes,
                        streams[0].size() - stream::kStreamHeaderBytes)
                  .ok());
  auto merged = first.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.value().status.ok()) << merged.value().status.ToString();

  auto again = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                             /*ordinal=*/1);
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().message().find("already completed this epoch"),
            std::string::npos)
      << again.status().ToString();
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().shards_merged, 1u);
  EXPECT_EQ(session.value().Snapshot(),
            DirectSessionSnapshot(pipeline, streams));
}

TEST(ReportServerTest, MultiplexedShardsOverOneConnectionAreBitIdentical) {
  // All four shards ride ONE connection as interleaved channels; the
  // event-driven server demultiplexes them and still produces the
  // reference byte for byte.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = streams.size();
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("multiplexed"), options);
  ASSERT_TRUE(server.ok());

  // Small flushes force many interleaved DATA messages per channel.
  net::CollectorClientOptions client_options;
  client_options.flush_bytes = 512;
  auto client =
      net::CollectorClient::Connect(server.value()->endpoint(),
                                    pipeline.header(), /*ordinal=*/0,
                                    client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<uint32_t> channels = {0};
  for (size_t s = 1; s < streams.size(); ++s) {
    auto channel = client.value().OpenShard(pipeline.header(), s);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    channels.push_back(channel.value());
  }
  EXPECT_EQ(client.value().open_shards(), streams.size());

  // Interleave: one chunk per shard, round-robin, until all are drained.
  std::vector<size_t> offsets(streams.size(), stream::kStreamHeaderBytes);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t s = 0; s < streams.size(); ++s) {
      if (offsets[s] >= streams[s].size()) continue;
      const size_t take = std::min<size_t>(1024, streams[s].size() - offsets[s]);
      ASSERT_TRUE(client.value()
                      .Send(channels[s], streams[s].data() + offsets[s], take)
                      .ok());
      offsets[s] += take;
      progressed = true;
    }
  }
  // Close in REVERSE ordinal order, pipelined, and await in ordinal order:
  // the verdicts must still match up by channel.
  for (size_t s = streams.size(); s-- > 0;) {
    ASSERT_TRUE(client.value().CloseShardBegin(channels[s]).ok());
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    auto summary = client.value().AwaitShardClosed(channels[s]);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok())
        << summary.value().status.ToString();
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  EXPECT_EQ(client.value().open_shards(), 0u);
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ZeroFlushBytesIsClampedNotAnInfiniteLoop) {
  // Regression: flush_bytes == 0 used to make CollectorClient::Send stage
  // zero bytes per loop iteration and spin forever. It is clamped to 1 at
  // Connect (degenerate one-byte DATA messages, but correct).
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 830);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("zero_flush"),
                               net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  net::CollectorClientOptions client_options;
  client_options.flush_bytes = 0;
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0, client_options);
  ASSERT_TRUE(client.ok());
  // Send a slice spanning several "buffers" (every byte flushes) plus the
  // remainder; the call must return, and the shard must merge intact.
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok());
  EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  server.value()->Stop(/*drain=*/true);
}

TEST(ReportServerTest, NumericStreamCampaignMatchesDirectSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/true);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 2);
  const std::string reference = DirectSessionSnapshot(pipeline, streams);
  const std::string snapshot =
      RunCampaign(pipeline, TestUdsEndpoint("numeric"), streams,
                  /*ingest_threads=*/2, std::vector<int>(streams.size(), 0));
  EXPECT_EQ(snapshot, reference);
}

TEST(ReportServerTest, MultiEpochCampaignOverOneConnection) {
  // A 2-epoch plan: the same reporter ships a shard per epoch over one
  // connection while the operator advances the epoch in between; an
  // advance is refused while a shard is open, and the accountant refuses
  // the one past the plan.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false,
                                                    /*epochs=*/2);
  const std::string epoch0 = MakeHonestStream(pipeline, 810);
  const std::string epoch1 = MakeHonestStream(pipeline, 811);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  // Expected-shards mode: the shard reopened below also proves completed
  // ordinals reset when the epoch advances (ordinal 0 streams again in
  // epoch 1).
  options.expected_shards = 1;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("epochs"), options);
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().epoch(), 0u);
  // The HELLO-admitted channel is open: the operator's advance must wait.
  const Status early = server.value()->AdvanceEpoch();
  EXPECT_EQ(early.code(), StatusCode::kFailedPrecondition) << early.ToString();
  EXPECT_EQ(session.value().current_epoch(), 0u);
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        epoch0.data() + stream::kStreamHeaderBytes,
                        epoch0.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok());

  const Status advanced = server.value()->AdvanceEpoch();
  ASSERT_TRUE(advanced.ok()) << advanced.ToString();
  EXPECT_EQ(session.value().current_epoch(), 1u);

  auto reopened =
      client.value().OpenShard(pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(client.value().epoch(), 1u);
  ASSERT_TRUE(client.value()
                  .Send(reopened.value(),
                        epoch1.data() + stream::kStreamHeaderBytes,
                        epoch1.size() - stream::kStreamHeaderBytes)
                  .ok());
  closed = client.value().CloseShard(reopened.value());
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok());

  // The plan is exhausted: the accountant refuses the next advance.
  const Status refused = server.value()->AdvanceEpoch();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.value().current_epoch(), 1u);

  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(session.value().num_epochs(), 2u);
  auto reports0 = session.value().num_reports(0);
  auto reports1 = session.value().num_reports(1);
  ASSERT_TRUE(reports0.ok());
  ASSERT_TRUE(reports1.ok());
  EXPECT_EQ(reports0.value(), kCorpusReports);
  EXPECT_EQ(reports1.value(), kCorpusReports);

  // Byte-identical to the same two-epoch campaign run directly.
  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  size_t shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, epoch0).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  ASSERT_TRUE(direct.value().AdvanceEpoch().ok());
  shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, epoch1).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  // The plan-exhausted refusal left a refusal count in the served
  // session's ledger (the open-shard refusal never reached the session);
  // the v2 snapshot serializes it, so the reference run must refuse too.
  EXPECT_FALSE(direct.value().AdvanceEpoch().ok());
  EXPECT_EQ(session.value().Snapshot(), direct.value().Snapshot());
}

TEST(ReportServerTest, KeyedCampaignChargesReporterOncePerEpoch) {
  // The acceptance pin for per-reporter accounting: alice reconnects three
  // times in one epoch (three connections, three shards), bob once. Every
  // HELLO is authenticated; alice's ledger is charged exactly once, and
  // the session — ledger section included — is bit-identical to feeding
  // the same shards directly with the same reporter ids.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::vector<std::string> streams = MakeShardStreams(pipeline, 4);
  const char* kReporters[] = {"alice", "alice", "bob", "alice"};
  const std::string kKey = "campaign-key-7";

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (size_t s = 0; s < streams.size(); ++s) {
    auto shard = direct.value().OpenShard(kReporters[s]);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_TRUE(direct.value().Feed(shard.value(), streams[s]).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard.value()).ok());
  }
  const std::string reference = direct.value().Snapshot();

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = kKey;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("keyed_once"), options);
  ASSERT_TRUE(server.ok());

  for (size_t s = 0; s < streams.size(); ++s) {
    net::CollectorClientOptions client_options;
    client_options.reporter_id = kReporters[s];
    client_options.campaign_key = kKey;
    auto client =
        net::CollectorClient::Connect(server.value()->endpoint(),
                                      pipeline.header(), /*ordinal=*/s,
                                      client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value()
                    .Send(/*channel=*/0,
                          streams[s].data() + stream::kStreamHeaderBytes,
                          streams[s].size() - stream::kStreamHeaderBytes)
                    .ok());
    auto summary = client.value().CloseShard(/*channel=*/0);
    ASSERT_TRUE(summary.ok());
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, streams.size());
  EXPECT_EQ(stats.shards_merged, streams.size());
  EXPECT_EQ(stats.hello_rejected, 0u);
  EXPECT_EQ(stats.hello_unauthenticated, 0u);

  // Three alice connections, one charge; the snapshot equality also pins
  // the serialized ledger against the direct run.
  EXPECT_EQ(session.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  EXPECT_EQ(session.value().accountant().Spent("bob"),
            pipeline.header().epsilon);
  EXPECT_EQ(session.value().accountant().num_charged_reporters(), 3u);
  EXPECT_EQ(session.value().Snapshot(), reference);
}

TEST(ReportServerTest, ImportedLedgerSpendRefusesReporterAtHello) {
  // A reporter's spend can arrive from another collection edge (snapshot
  // merge / relay forwarding) before the reporter ever connects here. If
  // that imported spend exhausts the lifetime budget, the authenticated
  // HELLO must be refused shardless — and the refusal must release the
  // ordinal so the campaign proceeds without the reporter.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string kKey = "campaign-key-7";
  const double epsilon = pipeline.header().epsilon;

  auto put16 = [](std::string* out, uint16_t v) {
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>(v >> 8));
  };
  auto put32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put64 = [&put32](std::string* out, uint64_t v) {
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
  };
  auto putf64 = [&put64](std::string* out, double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "f64 layout");
    std::memcpy(&bits, &v, sizeof(bits));
    put64(out, bits);
  };

  // Start from a real (empty, anonymous-only) snapshot and splice in a
  // ledger section claiming user-0 already spent the whole budget at a
  // foreign edge's later epochs. First pin the anonymous tail we are about
  // to replace, so a layout change fails loudly here instead of merging
  // garbage.
  auto donor = pipeline.NewServer();
  ASSERT_TRUE(donor.ok());
  std::string snapshot = donor.value().Snapshot();
  std::string anonymous_tail;
  put32(&anonymous_tail, 1);   // one reporter: the anonymous plan
  put16(&anonymous_tail, 0);   // empty id
  put64(&anonymous_tail, 0);   // refusals
  put32(&anonymous_tail, 1);   // one epoch entry
  put32(&anonymous_tail, 0);   // epoch 0
  putf64(&anonymous_tail, epsilon);
  ASSERT_GT(snapshot.size(), anonymous_tail.size());
  ASSERT_EQ(snapshot.substr(snapshot.size() - anonymous_tail.size()),
            anonymous_tail);

  std::string crafted_tail;
  put32(&crafted_tail, 2);  // anonymous plan + user-0, ascending by id
  put16(&crafted_tail, 0);
  put64(&crafted_tail, 0);
  put32(&crafted_tail, 1);
  put32(&crafted_tail, 0);
  putf64(&crafted_tail, epsilon);
  const std::string reporter = "user-0";
  put16(&crafted_tail, static_cast<uint16_t>(reporter.size()));
  crafted_tail.append(reporter);
  put64(&crafted_tail, 0);     // no refusals yet
  put32(&crafted_tail, 1);     // one epoch entry...
  put32(&crafted_tail, 7);     // ...at an epoch this session never opened
  putf64(&crafted_tail, epsilon);  // the whole single-epoch budget
  const std::string crafted =
      snapshot.substr(0, snapshot.size() - anonymous_tail.size()) +
      crafted_tail;

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value().Merge(crafted).ok());
  EXPECT_EQ(session.value().accountant().Spent(reporter), epsilon);

  net::ReportServerOptions options;
  options.campaign_key = kKey;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("ledger_refusal"), options);
  ASSERT_TRUE(server.ok());

  // user-0's tag verifies, but the accountant cannot afford epoch 0: the
  // HELLO is refused before any shard exists.
  net::CollectorClientOptions exhausted;
  exhausted.reporter_id = reporter;
  exhausted.campaign_key = kKey;
  auto refused = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0,
      exhausted);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // The refusal released ordinal 0: a solvent reporter reuses it and the
  // campaign completes around the missing shard.
  const std::string stream = MakeHonestStream(pipeline, 730);
  net::CollectorClientOptions solvent;
  solvent.reporter_id = "user-1";
  solvent.campaign_key = kKey;
  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0, solvent);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary.value().status.ok());
  server.value()->Stop(/*drain=*/true);

  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_rejected, 1u);
  // The tag verified; this was a budget refusal, not an auth failure.
  EXPECT_EQ(stats.hello_unauthenticated, 0u);
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(session.value().accountant().Refusals(reporter), 1u);
  EXPECT_EQ(session.value().accountant().Spent("user-1"), epsilon);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(ReportServerTest, HardStopAbandonsInFlightShards) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 820);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("hardstop"),
                               net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  // Ship some frames but never CLOSE; the hard stop must reap the shard.
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  server.value()->Stop(/*drain=*/false);

  // The half-shipped shard contributed nothing.
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_merged, 0u);
  EXPECT_EQ(stats.shards_abandoned, 1u);

  // And the client's next conversation step fails rather than hanging.
  auto summary = client.value().CloseShard(/*channel=*/0);
  EXPECT_FALSE(summary.ok() && summary.value().status.ok());
}

TEST(ReportServerTest, DuplicateActiveOrdinalIsRefused) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               TestUdsEndpoint("dup_ordinal"), options);
  ASSERT_TRUE(server.ok());

  auto first = net::CollectorClient::Connect(server.value()->endpoint(),
                                             pipeline.header(),
                                             /*ordinal=*/5);
  ASSERT_TRUE(first.ok());
  auto second = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/5);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);

  // The ordinal frees up once the first shard closes.
  auto closed = first.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok());
  auto third = net::CollectorClient::Connect(server.value()->endpoint(),
                                             pipeline.header(),
                                             /*ordinal=*/5);
  EXPECT_TRUE(third.ok());
  server.value()->Stop(/*drain=*/false);
}

}  // namespace
}  // namespace ldp
