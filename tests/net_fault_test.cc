// Socket fault injection for the transport edge: the PR 4 adversarial
// stream corpus (stream_corpus_util.h) replayed over real loopback
// connections, plus the failure modes only a socket can produce —
// mid-frame disconnects, slow-loris partial messages, hostile control
// length prefixes, HELLO schema mismatches, and a peer trying to advance
// the epoch, which only the operator may do. The contract: every fault
// rejects, poisons, or abandons exactly the offending connection's shard,
// while an honest connection served concurrently completes with exact
// counts — and the epoch holds precisely the honest contributions. A fake
// collector whose ERROR carries status code 0 must fail the reporter and
// the relay forwarder, never pass for success.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "relay/forwarder.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::CorpusOutcome;
using ldp::testing::kCorpusReports;
using ldp::testing::kStreamCorpus;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint FaultUdsEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath(name);
  return endpoint;
}

// --- a raw protocol speaker (no CollectorClient conveniences) --------------

// DATA payloads carry a u32 channel prefix since protocol v2; these raw
// speakers always use the connection's first channel (id 0).
std::string OnChannelZero(const std::string& frames) {
  std::string payload(net::kDataChannelPrefixBytes, '\0');
  payload.append(frames);
  return payload;
}

std::string CloseChannelZero() {
  net::CloseShardMessage close;
  close.channel = 0;
  return net::EncodeCloseShard(close);
}

// The verdict one hostile (or honest) stream earns over the wire.
struct WireVerdict {
  bool refused_at_hello = false;
  bool poisoned = false;  // ERROR mid-stream or SHARD_CLOSED with error
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};

// Plays one whole stream (header + frames) through a raw connection: HELLO
// carries the stream's first kStreamHeaderBytes (or fewer, for truncated
// headers), DATA the rest, then CLOSE_SHARD. Chunked sends keep frame
// boundaries straddling DATA messages.
Result<WireVerdict> PlayStream(const net::Endpoint& endpoint,
                               const std::string& bytes, uint64_t ordinal) {
  WireVerdict verdict;
  Result<net::Socket> socket = net::ConnectSocket(endpoint);
  if (!socket.ok()) return socket.status();
  net::HelloMessage hello;
  hello.ordinal = ordinal;
  hello.header_bytes =
      bytes.substr(0, std::min(bytes.size(),
                               static_cast<size_t>(
                                   stream::kStreamHeaderBytes)));
  LDP_RETURN_IF_ERROR(net::SendMessage(
      &socket.value(), net::MessageType::kHello, net::EncodeHello(hello)));
  net::MessageType type = net::MessageType::kError;
  std::string reply;
  bool got = false;
  LDP_ASSIGN_OR_RETURN(got, net::RecvMessage(&socket.value(), &type, &reply));
  if (!got) return Status::IoError("collector hung up at HELLO");
  if (type == net::MessageType::kError) {
    verdict.refused_at_hello = true;
    return verdict;
  }
  if (type != net::MessageType::kHelloOk) {
    return Status::InvalidArgument("unexpected HELLO reply");
  }

  // Ship the frames in smallish chunks; the server may poison the shard
  // and hang up mid-way, which is a verdict, not a test error.
  for (size_t offset = hello.header_bytes.size(); offset < bytes.size();
       offset += 4096) {
    const size_t take = std::min<size_t>(4096, bytes.size() - offset);
    const Status sent =
        net::SendMessage(&socket.value(), net::MessageType::kData,
                         OnChannelZero(bytes.substr(offset, take)));
    if (!sent.ok()) {
      verdict.poisoned = true;
      return verdict;
    }
  }
  const Status closing = net::SendMessage(
      &socket.value(), net::MessageType::kCloseShard, CloseChannelZero());
  if (!closing.ok()) {
    verdict.poisoned = true;
    return verdict;
  }
  LDP_ASSIGN_OR_RETURN(got, net::RecvMessage(&socket.value(), &type, &reply));
  if (!got) {
    verdict.poisoned = true;
    return verdict;
  }
  if (type == net::MessageType::kError) {
    verdict.poisoned = true;
    return verdict;
  }
  if (type != net::MessageType::kShardClosed) {
    return Status::InvalidArgument("unexpected CLOSE reply");
  }
  net::ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed, net::DecodeShardClosed(reply));
  verdict.poisoned = closed.code != 0;
  verdict.accepted = closed.stats.accepted;
  verdict.rejected = closed.stats.rejected;
  return verdict;
}

TEST(NetFaultTest, CorpusOverRealSocketsMatchesDirectOutcomes) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/910);

  for (const unsigned threads : {0u, 2u}) {
    api::ServerSessionOptions session_options;
    session_options.ingest_threads = threads;
    auto session = pipeline.NewServer(session_options);
    ASSERT_TRUE(session.ok());
    net::ReportServerOptions server_options;
    server_options.acceptors = 2;
    auto server = net::ReportServer::Start(
        &session.value(), pipeline.header(),
        FaultUdsEndpoint("corpus_t" + std::to_string(threads)),
        server_options);
    ASSERT_TRUE(server.ok());
    const net::Endpoint endpoint = server.value()->endpoint();

    // An honest reporter runs concurrently with every hostile replay; it
    // must be completely unaffected.
    std::thread honest_reporter([&] {
      auto verdict = PlayStream(endpoint, honest, /*ordinal=*/1000);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_FALSE(verdict.value().refused_at_hello);
      EXPECT_FALSE(verdict.value().poisoned);
      EXPECT_EQ(verdict.value().accepted, kCorpusReports);
      EXPECT_EQ(verdict.value().rejected, 0u);
    });

    uint64_t expected_epoch_reports = kCorpusReports;  // the honest shard
    uint64_t ordinal = 0;
    for (const auto& corpus_case : kStreamCorpus) {
      SCOPED_TRACE(corpus_case.name);
      const std::string mutant = corpus_case.mutate(honest);
      auto verdict = PlayStream(endpoint, mutant, ordinal++);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      if (corpus_case.mutates_header) {
        // Over the wire, header corruption is caught at HELLO: the shard
        // never opens at all.
        EXPECT_TRUE(verdict.value().refused_at_hello);
      } else if (corpus_case.outcome == CorpusOutcome::kPoisoned) {
        EXPECT_FALSE(verdict.value().refused_at_hello);
        EXPECT_TRUE(verdict.value().poisoned);
      } else {
        EXPECT_FALSE(verdict.value().refused_at_hello);
        EXPECT_FALSE(verdict.value().poisoned);
        EXPECT_EQ(verdict.value().rejected, corpus_case.expected_rejected);
        EXPECT_EQ(verdict.value().accepted, corpus_case.expected_accepted);
        expected_epoch_reports += corpus_case.expected_accepted;
      }
    }
    honest_reporter.join();
    server.value()->Stop(/*drain=*/true);

    auto reports = session.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), expected_epoch_reports)
        << "ingest_threads=" << threads;
  }
}

TEST(NetFaultTest, MidFrameDisconnectAbandonsOnlyThatShard) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/920);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("midframe"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    // HELLO, ship half the stream (cutting inside a frame), vanish.
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    net::HelloMessage hello;
    hello.ordinal = 0;
    hello.header_bytes = honest.substr(0, stream::kStreamHeaderBytes);
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 net::EncodeHello(hello))
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    ASSERT_TRUE(
        net::RecvMessage(&socket.value(), &type, &reply).value_or(false));
    ASSERT_EQ(type, net::MessageType::kHelloOk);
    const size_t half = honest.size() / 2;
    ASSERT_TRUE(
        net::SendMessage(&socket.value(), net::MessageType::kData,
                         OnChannelZero(honest.substr(
                             stream::kStreamHeaderBytes,
                             half - stream::kStreamHeaderBytes)))
            .ok());
    // Socket destructor: abrupt disconnect, no CLOSE_SHARD.
  }

  // An honest shard on a fresh connection is untouched by the wreckage.
  auto verdict = PlayStream(endpoint, honest, /*ordinal=*/1);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value().poisoned);
  EXPECT_EQ(verdict.value().accepted, kCorpusReports);

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_abandoned, 1u);
  EXPECT_EQ(stats.shards_merged, 1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  // Even the complete frames of the aborted upload contributed nothing.
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(NetFaultTest, SlowLorisPartialMessageIsReapedByIdleTimeout) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/930);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  options.idle_timeout_ms = 150;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("slowloris"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  // Loris #1: 3 of 5 header-prefix bytes, then silence.
  Result<net::Socket> loris = net::ConnectSocket(endpoint);
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(loris.value().SendAll("\x01\x10\x00", 3).ok());

  // Loris #2 drips one byte per interval — each recv succeeds, so a
  // per-recv timeout alone would never fire; the whole-message deadline
  // must reap it anyway.
  Result<net::Socket> dripper = net::ConnectSocket(endpoint);
  ASSERT_TRUE(dripper.ok());
  std::thread drip([&] {
    for (int i = 0; i < 12; ++i) {
      if (!dripper.value().SendAll("\x01", 1).ok()) return;  // reaped
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  });

  // Honest reporters keep being served while the loris squats one slot.
  auto verdict = PlayStream(endpoint, honest, /*ordinal=*/0);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value().poisoned);
  EXPECT_EQ(verdict.value().accepted, kCorpusReports);

  // The timeout reaps both lorises: their slots serve honest traffic
  // again (the dripper dies mid-drip despite never idling per recv).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  drip.join();
  auto verdict2 = PlayStream(endpoint, honest, /*ordinal=*/1);
  ASSERT_TRUE(verdict2.ok());
  EXPECT_EQ(verdict2.value().accepted, kCorpusReports);

  // Stop(drain) must not hang on the reaped connections.
  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_GE(stats.protocol_errors, 2u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 2 * kCorpusReports);
}

TEST(NetFaultTest, OversizedControlLengthPrefixKillsOnlyThatConnection) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/940);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.acceptors = 2;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("oversized"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    // Valid HELLO, then a DATA prefix claiming a ~4 GiB payload: the
    // server must refuse the length up front (never buffer it) and
    // abandon the shard.
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    net::HelloMessage hello;
    hello.ordinal = 0;
    hello.header_bytes = honest.substr(0, stream::kStreamHeaderBytes);
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 net::EncodeHello(hello))
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    ASSERT_TRUE(
        net::RecvMessage(&socket.value(), &type, &reply).value_or(false));
    ASSERT_EQ(type, net::MessageType::kHelloOk);
    const char hostile[net::kMessageHeaderBytes] = {
        0x02, '\xFF', '\xFF', '\xFF', '\xFF'};  // DATA, length 0xFFFFFFFF
    ASSERT_TRUE(socket.value().SendAll(hostile, sizeof(hostile)).ok());
    ASSERT_TRUE(
        net::RecvMessage(&socket.value(), &type, &reply).value_or(false));
    EXPECT_EQ(type, net::MessageType::kError);
  }

  auto verdict = PlayStream(endpoint, honest, /*ordinal=*/1);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().accepted, kCorpusReports);

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.shards_abandoned, 1u);
  EXPECT_GE(stats.protocol_errors, 1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

// Sends one HELLO on a fresh connection and expects the reply to be the
// auth gate's FailedPrecondition refusal.
void ExpectAuthRefusal(const net::Endpoint& endpoint,
                       const net::HelloMessage& hello) {
  Result<net::Socket> socket = net::ConnectSocket(endpoint);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                               net::EncodeHello(hello))
                  .ok());
  net::MessageType type = net::MessageType::kError;
  std::string reply;
  Result<bool> got = net::RecvMessage(&socket.value(), &type, &reply);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  ASSERT_EQ(type, net::MessageType::kError);
  auto error = net::DecodeErrorMessage(reply);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(net::StatusFromWire(error.value().code, error.value().message)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(NetFaultTest, KeyedServerRefusesForgedAndReplayedHellos) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/960);
  const std::string key = "fault-test-campaign-key";

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = key;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("authgate"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();
  const std::string header_bytes =
      honest.substr(0, stream::kStreamHeaderBytes);

  net::HelloMessage valid;
  valid.ordinal = 0;
  valid.reporter_id = "user-0";
  valid.header_bytes = header_bytes;
  valid.auth_tag = net::ComputeHelloTag(key, valid.reporter_id,
                                        valid.channel, /*epoch=*/0,
                                        header_bytes);

  // An anonymous HELLO (no reporter id, no tag) against the keyed server.
  {
    net::HelloMessage anonymous;
    anonymous.ordinal = 0;
    anonymous.header_bytes = header_bytes;
    ExpectAuthRefusal(endpoint, anonymous);
  }
  // One flipped bit anywhere in the tag.
  {
    net::HelloMessage flipped = valid;
    flipped.auth_tag[7] ^= 0x01;
    ExpectAuthRefusal(endpoint, flipped);
  }
  // A valid tag replayed onto a different channel.
  {
    net::HelloMessage cross_channel = valid;
    cross_channel.channel = 1;
    ExpectAuthRefusal(endpoint, cross_channel);
  }
  // A tag minted for a different epoch (the server is at epoch 0).
  {
    net::HelloMessage cross_epoch = valid;
    cross_epoch.auth_tag = net::ComputeHelloTag(
        key, valid.reporter_id, valid.channel, /*epoch=*/1, header_bytes);
    ExpectAuthRefusal(endpoint, cross_epoch);
  }
  // A tag minted under a different key.
  {
    net::HelloMessage wrong_key = valid;
    wrong_key.auth_tag = net::ComputeHelloTag(
        "not-the-key", valid.reporter_id, valid.channel, /*epoch=*/0,
        header_bytes);
    ExpectAuthRefusal(endpoint, wrong_key);
  }
  // A tag vouching for a different identity than the HELLO claims.
  {
    net::HelloMessage stolen = valid;
    stolen.reporter_id = "user-1";
    ExpectAuthRefusal(endpoint, stolen);
  }

  // The honest authenticated reporter is served through the wreckage —
  // via the real client, covering its v3 HELLO path too.
  net::CollectorClientOptions client_options;
  client_options.reporter_id = "user-0";
  client_options.campaign_key = key;
  auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                              /*ordinal=*/0, client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        honest.data() + stream::kStreamHeaderBytes,
                        honest.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok()) << closed.value().status.ToString();
  EXPECT_EQ(closed.value().stats.accepted, kCorpusReports);

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_unauthenticated, 6u);
  EXPECT_EQ(stats.hello_rejected, 6u);
  EXPECT_EQ(stats.shards_merged, 1u);
  // None of the six refused HELLOs reached the session: no shard beyond
  // the honest one ever opened, and only its reports exist.
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
  EXPECT_EQ(session.value().accountant().num_charged_reporters(), 2u)
      << "anonymous plan ledger + user-0, nobody else";
  EXPECT_EQ(session.value().accountant().Spent("user-0"),
            pipeline.header().epsilon);
}

// Connects a keyed reporter that signs its first HELLO for `epoch`.
Result<net::CollectorClient> ConnectKeyed(const net::Endpoint& endpoint,
                                          const api::Pipeline& pipeline,
                                          const std::string& key,
                                          uint32_t epoch) {
  net::CollectorClientOptions options;
  options.reporter_id = "user-0";
  options.campaign_key = key;
  options.epoch = epoch;
  return net::CollectorClient::Connect(endpoint, pipeline.header(),
                                       /*ordinal=*/0, options);
}

TEST(NetFaultTest, PeerCannotAdvanceTheEpoch) {
  // Regression: ADVANCE_EPOCH (type 0x04) used to be served to any peer,
  // HELLO or not. One such message moved a keyed campaign to epoch 1, so
  // the next honest reporter's epoch-0 tag stopped verifying; seven would
  // have spent this 7-epoch plan. 0x04 is now an unknown type.
  const api::Pipeline pipeline =
      MakeCorpusPipeline(/*numeric=*/false, /*epochs=*/7);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/965);
  const std::string key = "fault-test-campaign-key";

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = key;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("peer_advance"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    const char advance[net::kMessageHeaderBytes] = {0x04, 0, 0, 0, 0};
    ASSERT_TRUE(socket.value().SendAll(advance, sizeof(advance)).ok());
    net::MessageType type = net::MessageType::kHelloOk;
    std::string reply;
    ASSERT_TRUE(
        net::RecvMessage(&socket.value(), &type, &reply).value_or(false));
    EXPECT_EQ(type, net::MessageType::kError);
    // ...and then the collector hangs up.
    const Result<bool> after = net::RecvMessage(&socket.value(), &type, &reply);
    EXPECT_FALSE(after.ok() && after.value());
  }
  EXPECT_EQ(server.value()->stats().protocol_errors, 1u);
  EXPECT_EQ(session.value().current_epoch(), 0u);

  // The honest reporter signing epoch 0 is served.
  auto client = ConnectKeyed(endpoint, pipeline, key, /*epoch=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        honest.data() + stream::kStreamHeaderBytes,
                        honest.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed.value().status.ok()) << closed.value().status.ToString();

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(session.value().current_epoch(), 0u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(NetFaultTest, StaleEpochHelloIsRefusedNamingTheCurrentEpoch) {
  // After the operator's advance, a keyed reporter still signing epoch 0
  // is refused with a message that tells it which epoch to sign for.
  const api::Pipeline pipeline =
      MakeCorpusPipeline(/*numeric=*/false, /*epochs=*/7);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/966);
  const std::string key = "fault-test-campaign-key";

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = key;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("stale_epoch"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();
  ASSERT_TRUE(server.value()->AdvanceEpoch().ok());

  auto stale = ConnectKeyed(endpoint, pipeline, key, /*epoch=*/0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status().message().find("epoch 1"), std::string::npos)
      << stale.status().ToString();

  // Re-signed for epoch 1, the same reporter merges into epoch 1.
  auto client = ConnectKeyed(endpoint, pipeline, key, /*epoch=*/1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        honest.data() + stream::kStreamHeaderBytes,
                        honest.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed.value().status.ok()) << closed.value().status.ToString();

  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().hello_unauthenticated, 1u);
  auto reports = session.value().num_reports(1);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(NetFaultTest, KeylessServerRefusesAuthenticatedHello) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/970);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("keyless"),
                                         net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  // A v3 HELLO at a keyless collector: skipping verification silently
  // would teach reporters their ids are being honored when they are not.
  net::HelloMessage hello;
  hello.ordinal = 0;
  hello.reporter_id = "user-0";
  hello.auth_tag = net::ComputeHelloTag("some-key", hello.reporter_id,
                                        hello.channel, /*epoch=*/0,
                                        honest.substr(
                                            0, stream::kStreamHeaderBytes));
  hello.header_bytes = honest.substr(0, stream::kStreamHeaderBytes);
  ExpectAuthRefusal(server.value()->endpoint(), hello);

  // The same client with no identity options connects fine (anonymous
  // HELLO).
  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().CloseShard(/*channel=*/0).ok());

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_unauthenticated, 1u);
  EXPECT_EQ(stats.hello_rejected, 1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

// Sends `hello_payload` as a raw HELLO to a keyless collector and expects
// ERROR, no shard opened, and one protocol error; the next honest reporter
// takes the same ordinal and still merges.
void ExpectRawHelloIsAProtocolError(const std::string& name,
                                    const std::string& hello_payload) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/975);

  obs::MetricsRegistry registry;
  api::ServerSessionOptions session_options;
  session_options.metrics = &registry;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint(name),
                                         net::ReportServerOptions());
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  {
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 hello_payload)
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    Result<bool> got = net::RecvMessage(&socket.value(), &type, &reply);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value());
    EXPECT_EQ(type, net::MessageType::kError);
  }
  EXPECT_EQ(registry.GetCounter("ldp_session_shards_opened_total")->Value(),
            0u);

  auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                              /*ordinal=*/0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        honest.data() + stream::kStreamHeaderBytes,
                        honest.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed.value().status.ok()) << closed.value().status.ToString();

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.shards_merged, 1u);
  EXPECT_EQ(stats.shards_abandoned, 0u);
  EXPECT_EQ(registry.GetCounter("ldp_session_shards_opened_total")->Value(),
            1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

std::string CorpusHeaderBytes() {
  return stream::EncodeStreamHeader(
      MakeCorpusPipeline(/*numeric=*/false).header());
}

TEST(NetFaultTest, KeylessServerRefusesRetiredV2HelloLayout) {
  // The retired v2 layout, byte by byte: u16 version 2, u32 channel 0,
  // u32 flags 0, u64 ordinal 0, then straight into the stream header with
  // no reporter-id length field.
  std::string v2("\x02\x00", 2);
  v2.append(4 + 4 + 8, '\0');
  v2.append(CorpusHeaderBytes());
  ExpectRawHelloIsAProtocolError("v2hello", v2);
}

TEST(NetFaultTest, HelloWithAFlagBitSetIsAProtocolError) {
  // Bit 0 of the flags word once opted in to DATA_ACK replies; a client
  // still setting it would wait forever for them, so it is refused.
  net::HelloMessage hello;
  hello.header_bytes = CorpusHeaderBytes();
  std::string flagged = net::EncodeHello(hello);
  flagged[2 + 4] = '\x01';  // after u16 version and u32 channel
  ExpectRawHelloIsAProtocolError("flagged", flagged);
}

// A fake collector answering every connection's first message with an
// ERROR carrying status code 0, which no real server sends.
class ZeroCodeErrorPeer {
 public:
  explicit ZeroCodeErrorPeer(const std::string& name)
      : listener_(net::Listener::Bind(FaultUdsEndpoint(name)).value()) {
    thread_ = std::thread([this] {
      while (true) {
        Result<net::Socket> conn = listener_.Accept();
        if (!conn.ok() || !conn.value().valid()) return;
        net::MessageType type = net::MessageType::kError;
        std::string payload;
        if (net::RecvMessage(&conn.value(), &type, &payload).value_or(false)) {
          (void)net::SendMessage(&conn.value(), net::MessageType::kError,
                                 std::string("\0looks fine", 11));
        }
      }
    });
  }
  ~ZeroCodeErrorPeer() {
    listener_.Wake();
    thread_.join();
  }

  const net::Endpoint& endpoint() const { return listener_.endpoint(); }

 private:
  net::Listener listener_;
  std::thread thread_;
};

TEST(NetFaultTest, ZeroCodeErrorFailsTheReporterInsteadOfAborting) {
  ZeroCodeErrorPeer peer("zerocode_client");
  auto client = net::CollectorClient::Connect(
      peer.endpoint(), MakeCorpusPipeline(/*numeric=*/false).header(),
      /*ordinal=*/0);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetFaultTest, ZeroCodeErrorIsNotASnapshotAck) {
  ZeroCodeErrorPeer peer("zerocode_relay");
  auto session = MakeCorpusPipeline(/*numeric=*/false).NewServer();
  ASSERT_TRUE(session.ok());
  relay::RelayForwarderOptions options;
  options.interval_ms = 60000;  // only the explicit Flush forwards
  options.retry_backoff_ms = 10;
  options.max_backoff_ms = 50;
  options.flush_timeout_ms = 300;
  auto forwarder =
      relay::RelayForwarder::Start(&session.value(), peer.endpoint(), options);
  ASSERT_TRUE(forwarder.ok());
  EXPECT_FALSE(forwarder.value()->Flush().ok());
  EXPECT_EQ(forwarder.value()->stats().snapshots_forwarded, 0u);
  EXPECT_TRUE(forwarder.value()->Stop(/*final_flush=*/false).ok());
}

TEST(NetFaultTest, MalformedIdentitySectionPoisonsOnlyThatConnection) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/980);
  const std::string key = "fault-test-campaign-key";

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.campaign_key = key;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("badid"),
                                         options);
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();
  const std::string header_bytes =
      honest.substr(0, stream::kStreamHeaderBytes);

  net::HelloMessage valid;
  valid.ordinal = 0;
  valid.reporter_id = "user-0";
  valid.header_bytes = header_bytes;
  valid.auth_tag = net::ComputeHelloTag(key, valid.reporter_id,
                                        valid.channel, /*epoch=*/0,
                                        header_bytes);
  const std::string wire = net::EncodeHello(valid);
  constexpr size_t kFixed = 2 + 4 + 4 + 8;

  // Truncated mid-identity: the payload ends inside the reporter id.
  {
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 wire.substr(0, kFixed + 2 + 3))
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    ASSERT_TRUE(net::RecvMessage(&socket.value(), &type, &reply).ok());
    EXPECT_EQ(type, net::MessageType::kError);
  }
  // Oversized id length field backed by a huge payload.
  {
    std::string oversized = wire;
    const uint16_t lying = net::kMaxReporterIdBytes + 1;
    oversized[kFixed] = static_cast<char>(lying & 0xFF);
    oversized[kFixed + 1] = static_cast<char>(lying >> 8);
    oversized.append(1024, 'x');
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 oversized)
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    ASSERT_TRUE(net::RecvMessage(&socket.value(), &type, &reply).ok());
    EXPECT_EQ(type, net::MessageType::kError);
  }

  // The wreckage took nothing else down.
  net::CollectorClientOptions client_options;
  client_options.reporter_id = "user-0";
  client_options.campaign_key = key;
  auto client = net::CollectorClient::Connect(endpoint, pipeline.header(),
                                              /*ordinal=*/0, client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value().CloseShard(/*channel=*/0).ok());

  server.value()->Stop(/*drain=*/true);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(NetFaultTest, HelloSchemaHashMismatchIsRefusedBeforeAnyReport) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/950);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("hashmismatch"),
                                         net::ReportServerOptions());
  ASSERT_TRUE(server.ok());

  // CollectorClient surfaces the server's FailedPrecondition verbatim.
  stream::StreamHeader wrong = pipeline.header();
  wrong.schema_hash ^= 0xFF;
  auto refused = net::CollectorClient::Connect(server.value()->endpoint(),
                                               wrong, /*ordinal=*/0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("schema hash"),
            std::string::npos);

  server.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.hello_rejected, 1u);
  auto reports = session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

}  // namespace
}  // namespace ldp
