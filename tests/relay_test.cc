// End-to-end tests for the distributed collection tier (relay/forwarder.h
// + ReportServer snapshot ingest): a two-tier campaign — edge collectors
// forwarding cumulative session snapshots to a root — must reproduce the
// flat single-node run and the tree-shaped file-based merge bit for bit;
// a dead upstream costs only retries (the next acked snapshot subsumes
// everything); and hostile SNAPSHOT frames are refused without touching
// the root's session.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "relay/forwarder.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint RelayUdsEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath(name);
  return endpoint;
}

// Forwarder options for tests: an idle background cadence so the only
// snapshot that matters is the deterministic final flush.
relay::RelayForwarderOptions QuietForwarder(uint64_t node_id) {
  relay::RelayForwarderOptions options;
  options.node_id = node_id;
  options.interval_ms = 60000;
  options.retry_backoff_ms = 10;
  options.max_backoff_ms = 50;
  options.flush_timeout_ms = 10000;
  return options;
}

// Ships `stream` to `endpoint` as ordinal `ordinal` over a CollectorClient
// connection and closes the shard cleanly.
void ReportStream(const net::Endpoint& endpoint,
                  const stream::StreamHeader& header,
                  const std::string& stream, uint64_t ordinal) {
  auto client = net::CollectorClient::Connect(endpoint, header, ordinal);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()
                  .Send(/*channel=*/0,
                        stream.data() + stream::kStreamHeaderBytes,
                        stream.size() - stream::kStreamHeaderBytes)
                  .ok());
  auto summary = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(summary.value().status.ok());
}

struct RawReply {
  net::MessageType type = net::MessageType::kError;
  std::string payload;
};

// Sends one raw SNAPSHOT payload on a fresh connection and returns the
// reply (kSnapshotOk or kError — a refusal also hangs up).
RawReply SendSnapshotPayload(const net::Endpoint& endpoint,
                             const std::string& payload) {
  auto socket = net::ConnectSocket(endpoint);
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  EXPECT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kSnapshot,
                               payload)
                  .ok());
  RawReply reply;
  Result<bool> got =
      net::RecvMessage(&socket.value(), &reply.type, &reply.payload);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return reply;
}

// Run once plain and once with a FrameWal on the edge (the full
// distributed deployment: relay and write-ahead log both on).
TEST(RelayTest, OneEdgeRelayIsBitIdenticalToTheFlatRun) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  std::vector<std::string> streams;
  for (uint64_t s = 0; s < 3; ++s) {
    streams.push_back(MakeHonestStream(pipeline, 1000 + s));
  }
  // The flat reference: all shards fed into one session in ordinal order.
  auto flat = pipeline.NewServer();
  ASSERT_TRUE(flat.ok());
  for (const std::string& stream : streams) {
    const size_t shard = flat.value().OpenShard();
    ASSERT_TRUE(flat.value().Feed(shard, stream).ok());
    ASSERT_TRUE(flat.value().CloseShard(shard).ok());
  }
  const std::string reference = flat.value().Snapshot();

  for (const bool with_wal : {false, true}) {
    SCOPED_TRACE(with_wal ? "edge WAL on" : "edge WAL off");
    const std::string tag = with_wal ? "wal" : "";

    // Root tier: accepts relay snapshots, serves no reporters here.
    auto root_session = pipeline.NewServer();
    ASSERT_TRUE(root_session.ok());
    net::ReportServerOptions root_options;
    root_options.accept_snapshots = true;
    auto root = net::ReportServer::Start(&root_session.value(),
                                         pipeline.header(),
                                         RelayUdsEndpoint("root1" + tag),
                                         root_options);
    ASSERT_TRUE(root.ok());

    // Edge tier: a normal collector plus a forwarder pointed at the root.
    auto edge_session = pipeline.NewServer();
    ASSERT_TRUE(edge_session.ok());
    const testing::ScopedTempDir scoped_wal_dir("ldp_relay_wal_edge1_");
    const std::string& wal_dir = scoped_wal_dir.path();
    std::unique_ptr<relay::FrameWal> wal;
    if (with_wal) {
      auto opened = relay::FrameWal::Open(wal_dir, &edge_session.value(), {},
                                          nullptr);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      wal = std::move(opened).value();
    }
    net::ReportServerOptions edge_options;
    edge_options.expected_shards = streams.size();
    edge_options.wal = wal.get();
    auto edge = net::ReportServer::Start(&edge_session.value(),
                                         pipeline.header(),
                                         RelayUdsEndpoint("edge1" + tag),
                                         edge_options);
    ASSERT_TRUE(edge.ok());
    auto forwarder = relay::RelayForwarder::Start(
        &edge_session.value(), root.value()->endpoint(), QuietForwarder(0));
    ASSERT_TRUE(forwarder.ok()) << forwarder.status().ToString();

    for (uint64_t s = 0; s < streams.size(); ++s) {
      ReportStream(edge.value()->endpoint(), pipeline.header(), streams[s], s);
    }

    // The ldp_serve drain order: local ingest first, then the final flush
    // (the root must still be accepting), then the root drains and folds.
    edge.value()->Stop(/*drain=*/true);
    ASSERT_TRUE(forwarder.value()->Stop(/*final_flush=*/true).ok());
    root.value()->Stop(/*drain=*/true);
    ASSERT_TRUE(root.value()->FoldRelaySnapshots().ok());

    const net::ReportServerStats stats = root.value()->stats();
    EXPECT_GE(stats.snapshots_accepted, 1u);
    EXPECT_EQ(stats.snapshots_refused, 0u);
    EXPECT_EQ(stats.nodes_folded, 1u);
    const relay::RelayForwarderStats fstats = forwarder.value()->stats();
    EXPECT_GE(fstats.snapshots_forwarded, 1u);
    EXPECT_GT(fstats.bytes_forwarded, 0u);

    EXPECT_EQ(root_session.value().Snapshot(), reference);
    auto reports = root_session.value().num_reports(0);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(reports.value(), streams.size() * kCorpusReports);

    if (with_wal) {
      // The edge's log alone rebuilds the edge session byte for byte.
      wal.reset();
      auto replayed = pipeline.NewServer();
      ASSERT_TRUE(replayed.ok());
      ASSERT_TRUE(relay::ReplayWalDir(wal_dir, &replayed.value(), nullptr,
                                      nullptr, nullptr)
                      .ok());
      EXPECT_EQ(replayed.value().Snapshot(), edge_session.value().Snapshot());
    }
  }
}

TEST(RelayTest, TwoEdgesFoldInNodeIdOrderMatchingTheTreeReference) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream0 = MakeHonestStream(pipeline, 1100);
  const std::string stream1 = MakeHonestStream(pipeline, 1101);

  // Edge sessions, fed directly (the transport edge is covered above).
  auto edge0 = pipeline.NewServer();
  auto edge1 = pipeline.NewServer();
  ASSERT_TRUE(edge0.ok() && edge1.ok());
  size_t shard = edge0.value().OpenShard();
  ASSERT_TRUE(edge0.value().Feed(shard, stream0).ok());
  ASSERT_TRUE(edge0.value().CloseShard(shard).ok());
  shard = edge1.value().OpenShard();
  ASSERT_TRUE(edge1.value().Feed(shard, stream1).ok());
  ASSERT_TRUE(edge1.value().CloseShard(shard).ok());

  // The tree-shaped reference: `ldp_aggregate edge0.ldpe edge1.ldpe`.
  auto tree = pipeline.NewServer();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value().Merge(edge0.value().Snapshot()).ok());
  ASSERT_TRUE(tree.value().Merge(edge1.value().Snapshot()).ok());
  const std::string reference = tree.value().Snapshot();

  auto root_session = pipeline.NewServer();
  ASSERT_TRUE(root_session.ok());
  net::ReportServerOptions root_options;
  root_options.accept_snapshots = true;
  root_options.acceptors = 2;
  auto root = net::ReportServer::Start(&root_session.value(),
                                       pipeline.header(),
                                       RelayUdsEndpoint("root2"),
                                       root_options);
  ASSERT_TRUE(root.ok());

  // Node 1 flushes FIRST: arrival order must not matter, only node id.
  auto fwd1 = relay::RelayForwarder::Start(
      &edge1.value(), root.value()->endpoint(), QuietForwarder(1));
  auto fwd0 = relay::RelayForwarder::Start(
      &edge0.value(), root.value()->endpoint(), QuietForwarder(0));
  ASSERT_TRUE(fwd1.ok() && fwd0.ok());
  ASSERT_TRUE(fwd1.value()->Stop(/*final_flush=*/true).ok());
  ASSERT_TRUE(fwd0.value()->Stop(/*final_flush=*/true).ok());

  root.value()->Stop(/*drain=*/true);
  ASSERT_TRUE(root.value()->FoldRelaySnapshots().ok());
  EXPECT_EQ(root.value()->stats().nodes_folded, 2u);
  EXPECT_EQ(root_session.value().Snapshot(), reference);
}

TEST(RelayTest, UpstreamDeathMidCampaignCostsOnlyRetries) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream0 = MakeHonestStream(pipeline, 1200);
  const std::string stream1 = MakeHonestStream(pipeline, 1201);
  const net::Endpoint endpoint = RelayUdsEndpoint("root_restart");

  auto reference_session = pipeline.NewServer();
  ASSERT_TRUE(reference_session.ok());
  for (const std::string& stream : {stream0, stream1}) {
    const size_t shard = reference_session.value().OpenShard();
    ASSERT_TRUE(reference_session.value().Feed(shard, stream).ok());
    ASSERT_TRUE(reference_session.value().CloseShard(shard).ok());
  }

  auto edge_session = pipeline.NewServer();
  ASSERT_TRUE(edge_session.ok());
  size_t shard = edge_session.value().OpenShard();
  ASSERT_TRUE(edge_session.value().Feed(shard, stream0).ok());
  ASSERT_TRUE(edge_session.value().CloseShard(shard).ok());

  // A fast-cadence forwarder so the mid-campaign snapshot and the retry
  // storm both happen while we watch.
  relay::RelayForwarderOptions options = QuietForwarder(0);
  options.interval_ms = 20;

  net::ReportServerOptions root_options;
  root_options.accept_snapshots = true;
  auto root1_session = pipeline.NewServer();
  ASSERT_TRUE(root1_session.ok());
  auto root1 = net::ReportServer::Start(&root1_session.value(),
                                        pipeline.header(), endpoint,
                                        root_options);
  ASSERT_TRUE(root1.ok());
  auto forwarder = relay::RelayForwarder::Start(&edge_session.value(),
                                                endpoint, options);
  ASSERT_TRUE(forwarder.ok());

  // Wait until the first tier-crossing snapshot lands...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (root1.value()->stats().snapshots_accepted == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no snapshot reached the first root";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...then the root dies mid-campaign, taking its stored snapshots with
  // it. Everything it held is re-earned by the cumulative final flush.
  root1.value()->Stop(/*drain=*/false);
  root1.value().reset();

  // The edge keeps collecting against a dead upstream.
  shard = edge_session.value().OpenShard();
  ASSERT_TRUE(edge_session.value().Feed(shard, stream1).ok());
  ASSERT_TRUE(edge_session.value().CloseShard(shard).ok());
  while (forwarder.value()->stats().forward_failures == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "forwarder never noticed the dead upstream";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // A replacement root on the same endpoint; the final flush retries its
  // way in, and the fold reproduces the full campaign.
  auto root2_session = pipeline.NewServer();
  ASSERT_TRUE(root2_session.ok());
  auto root2 = net::ReportServer::Start(&root2_session.value(),
                                        pipeline.header(), endpoint,
                                        root_options);
  ASSERT_TRUE(root2.ok());
  ASSERT_TRUE(forwarder.value()->Stop(/*final_flush=*/true).ok());
  root2.value()->Stop(/*drain=*/true);
  ASSERT_TRUE(root2.value()->FoldRelaySnapshots().ok());

  const relay::RelayForwarderStats fstats = forwarder.value()->stats();
  EXPECT_GE(fstats.forward_failures, 1u);
  EXPECT_GE(fstats.reconnects, 2u);
  EXPECT_EQ(root2_session.value().Snapshot(),
            reference_session.value().Snapshot());
}

TEST(RelayTest, RetriesAndStaleSequencesAreIdempotent) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream0 = MakeHonestStream(pipeline, 1300);
  const std::string stream1 = MakeHonestStream(pipeline, 1301);

  auto partial = pipeline.NewServer();
  auto full = pipeline.NewServer();
  ASSERT_TRUE(partial.ok() && full.ok());
  size_t shard = partial.value().OpenShard();
  ASSERT_TRUE(partial.value().Feed(shard, stream0).ok());
  ASSERT_TRUE(partial.value().CloseShard(shard).ok());
  for (const std::string& stream : {stream0, stream1}) {
    shard = full.value().OpenShard();
    ASSERT_TRUE(full.value().Feed(shard, stream).ok());
    ASSERT_TRUE(full.value().CloseShard(shard).ok());
  }

  auto root_session = pipeline.NewServer();
  ASSERT_TRUE(root_session.ok());
  net::ReportServerOptions root_options;
  root_options.accept_snapshots = true;
  auto root = net::ReportServer::Start(&root_session.value(),
                                       pipeline.header(),
                                       RelayUdsEndpoint("idempotent"),
                                       root_options);
  ASSERT_TRUE(root.ok());

  auto send = [&](uint64_t seq, const std::string& bytes) {
    net::SnapshotMessage snap;
    snap.node = 0;
    snap.seq = seq;
    snap.snapshot_bytes = bytes;
    const RawReply reply = SendSnapshotPayload(root.value()->endpoint(),
                                               net::EncodeSnapshot(snap));
    EXPECT_EQ(reply.type, net::MessageType::kSnapshotOk);
    auto ok = net::DecodeSnapshotOk(reply.payload);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().seq, seq);
  };
  // The full snapshot lands at seq 2, a duplicate retry of it is re-acked,
  // and a STALE seq-1 retry (the partial state) arrives last; highest seq
  // must win regardless of arrival order. Only the first arrival counts as
  // accepted — the equal-seq retry and the stale seq-1 are acked (so the
  // relay stops retrying) but tallied as stale, never as fresh progress.
  send(2, full.value().Snapshot());
  send(2, full.value().Snapshot());
  send(1, partial.value().Snapshot());

  root.value()->Stop(/*drain=*/true);
  ASSERT_TRUE(root.value()->FoldRelaySnapshots().ok());
  EXPECT_EQ(root.value()->stats().snapshots_accepted, 1u);
  EXPECT_EQ(root.value()->stats().snapshots_stale, 2u);
  EXPECT_EQ(root.value()->stats().nodes_folded, 1u);
  EXPECT_EQ(root_session.value().Snapshot(), full.value().Snapshot());
}

TEST(RelayTest, HostileSnapshotFramesAreRefusedWithoutTouchingTheSession) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const api::Pipeline numeric = MakeCorpusPipeline(/*numeric=*/true);

  // A collector that did NOT opt into relay ingest refuses even a
  // well-formed snapshot.
  auto closed_session = pipeline.NewServer();
  ASSERT_TRUE(closed_session.ok());
  auto closed_root = net::ReportServer::Start(
      &closed_session.value(), pipeline.header(),
      RelayUdsEndpoint("no_snapshots"), net::ReportServerOptions());
  ASSERT_TRUE(closed_root.ok());
  auto well_formed_session = pipeline.NewServer();
  ASSERT_TRUE(well_formed_session.ok());
  net::SnapshotMessage well_formed;
  well_formed.node = 1;
  well_formed.seq = 1;
  well_formed.snapshot_bytes = well_formed_session.value().Snapshot();
  RawReply reply = SendSnapshotPayload(closed_root.value()->endpoint(),
                                       net::EncodeSnapshot(well_formed));
  EXPECT_EQ(reply.type, net::MessageType::kError);
  closed_root.value()->Stop(/*drain=*/false);
  EXPECT_EQ(closed_root.value()->stats().snapshots_refused, 1u);

  // A relay-enabled root against the hostile-payload table. Every case is
  // refused on its own connection; none leaves a trace in the session.
  auto root_session = pipeline.NewServer();
  ASSERT_TRUE(root_session.ok());
  net::ReportServerOptions root_options;
  root_options.accept_snapshots = true;
  auto root = net::ReportServer::Start(&root_session.value(),
                                       pipeline.header(),
                                       RelayUdsEndpoint("hostile"),
                                       root_options);
  ASSERT_TRUE(root.ok());

  net::SnapshotMessage mismatched = well_formed;
  mismatched.snapshot_bytes = numeric.NewServer().value().Snapshot();
  net::SnapshotMessage garbage_body = well_formed;
  garbage_body.snapshot_bytes = "not a session snapshot at all";
  const std::string honest_wire = net::EncodeSnapshot(well_formed);
  const struct {
    const char* name;
    std::string payload;
  } kHostile[] = {
      {"unparseable-payload", std::string("\xFF\xFF garbage")},
      {"truncated-fixed-fields", honest_wire.substr(0, 7)},
      {"truncated-snapshot-body",
       honest_wire.substr(0, honest_wire.size() - 3)},
      {"trailing-garbage", honest_wire + "zz"},
      {"wrong-pipeline-config", net::EncodeSnapshot(mismatched)},
      {"garbage-snapshot-body", net::EncodeSnapshot(garbage_body)},
  };
  for (const auto& hostile : kHostile) {
    reply = SendSnapshotPayload(root.value()->endpoint(), hostile.payload);
    EXPECT_EQ(reply.type, net::MessageType::kError) << hostile.name;
  }

  // SNAPSHOT while this connection's shard is open is a protocol breach.
  {
    auto socket = net::ConnectSocket(root.value()->endpoint());
    ASSERT_TRUE(socket.ok());
    net::HelloMessage hello;
    hello.ordinal = 0;
    hello.header_bytes =
        stream::EncodeStreamHeader(pipeline.header());
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kHello,
                                 net::EncodeHello(hello))
                    .ok());
    net::MessageType type = net::MessageType::kError;
    std::string reply;
    ASSERT_TRUE(net::RecvMessage(&socket.value(), &type, &reply).ok());
    ASSERT_EQ(type, net::MessageType::kHelloOk);
    ASSERT_TRUE(net::SendMessage(&socket.value(), net::MessageType::kSnapshot,
                                 honest_wire)
                    .ok());
    type = net::MessageType::kError;
    ASSERT_TRUE(net::RecvMessage(&socket.value(), &type, &reply).ok());
    EXPECT_EQ(type, net::MessageType::kError);
  }

  root.value()->Stop(/*drain=*/true);
  const net::ReportServerStats stats = root.value()->stats();
  EXPECT_EQ(stats.snapshots_refused, 6u);
  EXPECT_EQ(stats.snapshots_accepted, 0u);
  ASSERT_TRUE(root.value()->FoldRelaySnapshots().ok());
  EXPECT_EQ(root.value()->stats().nodes_folded, 0u);
  auto reports = root_session.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

}  // namespace
}  // namespace ldp
