// Socket fault injection for the transport edge: the PR 4 adversarial
// stream corpus (stream_corpus_util.h) replayed over real loopback
// connections, plus the failure modes only a socket can produce —
// mid-frame disconnects, slow-loris partial messages, hostile control
// length prefixes, and HELLO schema mismatches. The contract: every fault
// rejects, poisons, or abandons exactly the offending connection's shard,
// while an honest connection served concurrently completes with exact
// counts — and the epoch holds precisely the honest contributions.

#include <gtest/gtest.h>
#include <unistd.h>

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
#include "stream/report_stream.h"
#include "stream_corpus_util.h"

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
  endpoint.path = "/tmp/ldp_fault_" + std::to_string(::getpid()) + "_" +
                  name + ".sock";
  return endpoint;
}

// --- a raw protocol speaker (no CollectorClient conveniences) --------------

Status SendRawMessage(net::Socket* socket, net::MessageType type,
                      const std::string& payload) {
  std::string wire;
  LDP_RETURN_IF_ERROR(net::AppendMessage(type, payload, &wire));
  return socket->SendAll(wire);
}

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

struct RawReply {
  net::MessageType type = net::MessageType::kError;
  std::string payload;
  bool eof = false;
};

Result<RawReply> ReadRawReply(net::Socket* socket) {
  RawReply reply;
  char prefix[net::kMessageHeaderBytes];
  Result<bool> got = socket->RecvAll(prefix, sizeof(prefix));
  if (!got.ok()) return got.status();
  if (!got.value()) {
    reply.eof = true;
    return reply;
  }
  Result<net::MessageHeader> header =
      net::DecodeMessageHeader(prefix, sizeof(prefix));
  if (!header.ok()) return header.status();
  reply.type = header.value().type;
  reply.payload.resize(header.value().payload_length);
  if (!reply.payload.empty()) {
    Result<bool> body =
        socket->RecvAll(reply.payload.data(), reply.payload.size());
    if (!body.ok()) return body.status();
    if (!body.value()) return Status::IoError("eof mid-reply");
  }
  return reply;
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
  LDP_RETURN_IF_ERROR(SendRawMessage(&socket.value(), net::MessageType::kHello,
                                     net::EncodeHello(hello)));
  RawReply reply;
  LDP_ASSIGN_OR_RETURN(reply, ReadRawReply(&socket.value()));
  if (reply.eof) return Status::IoError("collector hung up at HELLO");
  if (reply.type == net::MessageType::kError) {
    verdict.refused_at_hello = true;
    return verdict;
  }
  if (reply.type != net::MessageType::kHelloOk) {
    return Status::InvalidArgument("unexpected HELLO reply");
  }

  // Ship the frames in smallish chunks; the server may poison the shard
  // and hang up mid-way, which is a verdict, not a test error.
  for (size_t offset = hello.header_bytes.size(); offset < bytes.size();
       offset += 4096) {
    const size_t take = std::min<size_t>(4096, bytes.size() - offset);
    const Status sent =
        SendRawMessage(&socket.value(), net::MessageType::kData,
                       OnChannelZero(bytes.substr(offset, take)));
    if (!sent.ok()) {
      verdict.poisoned = true;
      return verdict;
    }
  }
  const Status closing = SendRawMessage(
      &socket.value(), net::MessageType::kCloseShard, CloseChannelZero());
  if (!closing.ok()) {
    verdict.poisoned = true;
    return verdict;
  }
  LDP_ASSIGN_OR_RETURN(reply, ReadRawReply(&socket.value()));
  if (reply.eof) {
    verdict.poisoned = true;
    return verdict;
  }
  if (reply.type == net::MessageType::kError) {
    verdict.poisoned = true;
    return verdict;
  }
  if (reply.type != net::MessageType::kShardClosed) {
    return Status::InvalidArgument("unexpected CLOSE reply");
  }
  net::ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed, net::DecodeShardClosed(reply.payload));
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
    ASSERT_TRUE(SendRawMessage(&socket.value(), net::MessageType::kHello,
                               net::EncodeHello(hello))
                    .ok());
    auto reply = ReadRawReply(&socket.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, net::MessageType::kHelloOk);
    const size_t half = honest.size() / 2;
    ASSERT_TRUE(
        SendRawMessage(&socket.value(), net::MessageType::kData,
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
    ASSERT_TRUE(SendRawMessage(&socket.value(), net::MessageType::kHello,
                               net::EncodeHello(hello))
                    .ok());
    auto ok = ReadRawReply(&socket.value());
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value().type, net::MessageType::kHelloOk);
    const char hostile[net::kMessageHeaderBytes] = {
        0x02, '\xFF', '\xFF', '\xFF', '\xFF'};  // DATA, length 0xFFFFFFFF
    ASSERT_TRUE(socket.value().SendAll(hostile, sizeof(hostile)).ok());
    auto reply = ReadRawReply(&socket.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, net::MessageType::kError);
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

// Sends one HELLO on a fresh connection and returns the server's reply.
Result<RawReply> SendLoneHello(const net::Endpoint& endpoint,
                               const net::HelloMessage& hello) {
  Result<net::Socket> socket = net::ConnectSocket(endpoint);
  if (!socket.ok()) return socket.status();
  LDP_RETURN_IF_ERROR(SendRawMessage(&socket.value(), net::MessageType::kHello,
                                     net::EncodeHello(hello)));
  return ReadRawReply(&socket.value());
}

// Expects `reply` to be the auth gate's FailedPrecondition refusal.
void ExpectAuthRefusal(const Result<RawReply>& reply) {
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_FALSE(reply.value().eof);
  ASSERT_EQ(reply.value().type, net::MessageType::kError);
  auto error = net::DecodeErrorMessage(reply.value().payload);
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
    ExpectAuthRefusal(SendLoneHello(endpoint, anonymous));
  }
  // One flipped bit anywhere in the tag.
  {
    net::HelloMessage flipped = valid;
    flipped.auth_tag[7] ^= 0x01;
    ExpectAuthRefusal(SendLoneHello(endpoint, flipped));
  }
  // A valid tag replayed onto a different channel.
  {
    net::HelloMessage cross_channel = valid;
    cross_channel.channel = 1;
    ExpectAuthRefusal(SendLoneHello(endpoint, cross_channel));
  }
  // A tag minted for a different epoch (the server is at epoch 0).
  {
    net::HelloMessage cross_epoch = valid;
    cross_epoch.auth_tag = net::ComputeHelloTag(
        key, valid.reporter_id, valid.channel, /*epoch=*/1, header_bytes);
    ExpectAuthRefusal(SendLoneHello(endpoint, cross_epoch));
  }
  // A tag minted under a different key.
  {
    net::HelloMessage wrong_key = valid;
    wrong_key.auth_tag = net::ComputeHelloTag(
        "not-the-key", valid.reporter_id, valid.channel, /*epoch=*/0,
        header_bytes);
    ExpectAuthRefusal(SendLoneHello(endpoint, wrong_key));
  }
  // A tag vouching for a different identity than the HELLO claims.
  {
    net::HelloMessage stolen = valid;
    stolen.reporter_id = "user-1";
    ExpectAuthRefusal(SendLoneHello(endpoint, stolen));
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
  ExpectAuthRefusal(SendLoneHello(server.value()->endpoint(), hello));

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

TEST(NetFaultTest, KeylessServerRefusesRetiredV2HelloLayout) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string honest = MakeHonestStream(pipeline, /*seed=*/975);

  obs::MetricsRegistry registry;
  api::ServerSessionOptions session_options;
  session_options.metrics = &registry;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         FaultUdsEndpoint("v2hello"),
                                         net::ReportServerOptions());
  ASSERT_TRUE(server.ok());
  const net::Endpoint endpoint = server.value()->endpoint();

  // The retired v2 layout, byte by byte: u16 version 2, u32 channel 0,
  // u32 flags 0, u64 ordinal 0, then straight into the stream header with
  // no reporter-id length field.
  std::string v2("\x02\x00", 2);
  v2.append(4 + 4 + 8, '\0');
  v2.append(honest.substr(0, stream::kStreamHeaderBytes));
  {
    Result<net::Socket> socket = net::ConnectSocket(endpoint);
    ASSERT_TRUE(socket.ok());
    ASSERT_TRUE(
        SendRawMessage(&socket.value(), net::MessageType::kHello, v2).ok());
    auto reply = ReadRawReply(&socket.value());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply.value().eof);
    EXPECT_EQ(reply.value().type, net::MessageType::kError);
  }
  EXPECT_EQ(registry.GetCounter("ldp_session_shards_opened_total")->Value(),
            0u);

  // The next honest reporter takes the same ordinal and still merges.
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
    ASSERT_TRUE(SendRawMessage(&socket.value(), net::MessageType::kHello,
                               wire.substr(0, kFixed + 2 + 3))
                    .ok());
    auto reply = ReadRawReply(&socket.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, net::MessageType::kError);
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
    ASSERT_TRUE(SendRawMessage(&socket.value(), net::MessageType::kHello,
                               oversized)
                    .ok());
    auto reply = ReadRawReply(&socket.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().type, net::MessageType::kError);
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
