// obs/metrics_server.h end to end, plus the two contracts that make the
// telemetry subsystem trustworthy:
//
//  1. A live scrape during a socket campaign reports *exact* campaign
//     counts — reports accepted, shards merged, HELLOs accepted/refused —
//     equal to what the reporters shipped, not approximations.
//  2. Telemetry never perturbs results: identically-fed sessions with and
//     without a registry/journal produce bit-identical snapshots.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;

net::Endpoint TcpEphemeral() {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;
  return endpoint;
}

net::Endpoint UdsEndpoint(const std::string& name) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath(name);
  return endpoint;
}

// One HTTP/1.0 GET: full response (status line + headers + body).
std::string HttpGet(const net::Endpoint& endpoint, const std::string& path) {
  auto socket = net::ConnectSocket(endpoint);
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  if (!socket.ok()) return "";
  EXPECT_TRUE(socket.value().SendAll("GET " + path + " HTTP/1.0\r\n\r\n").ok());
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(socket.value().fd(), buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  return response;
}

std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// Value of an unlabeled counter/gauge sample line in Prometheus text.
uint64_t ScrapedValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, needle.size(), needle) == 0) {
      return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos = end + 1;
  }
  ADD_FAILURE() << "metric not scraped: " << name << "\n" << text;
  return ~uint64_t{0};
}

TEST(ObsServer, ServesAllRoutesOverTcp) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ldp_test_scrapes_total")->Add(7);
  obs::EventJournal journal(64);
  journal.Record(obs::EventKind::kServerStart);

  auto server = obs::MetricsServer::Start(TcpEphemeral(), &registry, &journal);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const net::Endpoint endpoint = server.value()->endpoint();
  ASSERT_NE(endpoint.port, 0u);

  const std::string metrics = HttpGet(endpoint, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_EQ(ScrapedValue(HttpBody(metrics), "ldp_test_scrapes_total"), 7u);

  // The JSON route serves exactly the shared serializer's bytes — the same
  // bytes --metrics-out files and ldp_serve's exit stats carry.
  EXPECT_EQ(HttpBody(HttpGet(endpoint, "/metrics.json")),
            obs::ToJson(registry));
  EXPECT_EQ(HttpBody(HttpGet(endpoint, "/journal")), journal.ToJsonLines());
  EXPECT_EQ(HttpBody(HttpGet(endpoint, "/trace")), journal.ToChromeTrace());
  EXPECT_EQ(HttpBody(HttpGet(endpoint, "/healthz")), "ok\n");
  EXPECT_NE(HttpGet(endpoint, "/nope").find("404"), std::string::npos);

  server.value()->Stop();
}

TEST(ObsServer, ServesOverUnixDomainSocket) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ldp_test_scrapes_total")->Add(3);
  auto server = obs::MetricsServer::Start(UdsEndpoint("routes"), &registry,
                                          /*journal=*/nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(ScrapedValue(HttpBody(HttpGet(server.value()->endpoint(),
                                          "/metrics")),
                         "ldp_test_scrapes_total"),
            3u);
  // Journal routes 404 when no journal is wired.
  EXPECT_NE(HttpGet(server.value()->endpoint(), "/journal").find("404"),
            std::string::npos);
  server.value()->Stop();
}

// The accept loop is serial, so the request-head read has one deadline
// for the whole head: a client trickling a byte at a time is cut off after
// it, and a concurrent /healthz waits for at most that long.
TEST(ObsServer, TricklingClientCannotHoldTheEndpointPastTheDeadline) {
  obs::MetricsRegistry registry;
  auto server = obs::MetricsServer::Start(TcpEphemeral(), &registry,
                                          /*journal=*/nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const net::Endpoint endpoint = server.value()->endpoint();

  auto slow = net::ConnectSocket(endpoint);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_TRUE(slow.value().SetIdleTimeout(10000).ok());
  const auto started = std::chrono::steady_clock::now();
  auto seconds_since_start = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };
  // A request head that never ends: one byte every 250 ms until the server
  // hangs up. The trickle gives up after 12 s, so a server without a
  // whole-head deadline fails the checks below instead of hanging the test.
  std::atomic<double> closed_after_s{0.0};  // 0: never hung up
  std::thread trickler([&] {
    const std::string head = "GET /metrics HTTP/1.0\r\nX-Pad: ";
    const int fd = slow.value().fd();
    for (size_t i = 0; seconds_since_start() < 12.0; ++i) {
      pollfd ready{};
      ready.fd = fd;
      ready.events = POLLIN;
      if (::poll(&ready, 1, 250) > 0) {
        char buffer[256];
        while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
        }
        break;
      }
      const char byte = i < head.size() ? head[i] : 'a';
      if (!slow.value().SendAll(&byte, 1).ok()) break;
    }
    if (seconds_since_start() < 12.0) closed_after_s = seconds_since_start();
  });

  // Let the server start reading the trickled head before asking.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto asked = std::chrono::steady_clock::now();
  const std::string health = HttpGet(endpoint, "/healthz");
  const double health_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - asked)
                              .count();
  trickler.join();

  EXPECT_EQ(HttpBody(health), "ok\n");
  EXPECT_LT(health_s, 7.0);
  EXPECT_GT(closed_after_s.load(), 0.0) << "the server never hung up";
  EXPECT_LT(closed_after_s.load(), 7.0);
  server.value()->Stop();
}

TEST(ObsServer, ScrapedCountersMatchCampaignExactly) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  constexpr size_t kShards = 3;
  std::vector<std::string> streams;
  for (size_t s = 0; s < kShards; ++s) {
    streams.push_back(MakeHonestStream(pipeline, /*seed=*/900 + s));
  }

  obs::MetricsRegistry registry;
  obs::EventJournal journal(1024);
  api::ServerSessionOptions session_options;
  session_options.metrics = &registry;
  session_options.journal = &journal;
  auto session = pipeline.NewServer(session_options);
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions server_options;
  server_options.expected_shards = kShards;
  server_options.metrics = &registry;
  server_options.journal = &journal;
  auto server =
      net::ReportServer::Start(&session.value(), pipeline.header(),
                               UdsEndpoint("campaign"), server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const net::Endpoint collector = server.value()->endpoint();

  auto scrape = obs::MetricsServer::Start(TcpEphemeral(), &registry, &journal);
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();

  // The campaign: kShards honest reporters, sequential.
  for (size_t s = 0; s < kShards; ++s) {
    auto client = net::CollectorClient::Connect(collector, pipeline.header(),
                                                /*ordinal=*/s);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value()
                    .Send(/*channel=*/0,
                          streams[s].data() + stream::kStreamHeaderBytes,
                          streams[s].size() - stream::kStreamHeaderBytes)
                    .ok());
    auto summary = client.value().CloseShard(/*channel=*/0);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_TRUE(summary.value().status.ok());
    EXPECT_EQ(summary.value().stats.accepted, kCorpusReports);
  }
  // Plus one reporter whose HELLO must be refused (ε mismatch).
  stream::StreamHeader wrong = pipeline.header();
  wrong.epsilon += 1.0;
  auto refused = net::CollectorClient::Connect(collector, wrong,
                                               /*ordinal=*/0);
  EXPECT_FALSE(refused.ok());

  // Live scrape, campaign still running: counts must be exact, not
  // eventually-consistent — every counter publish happens before the
  // CLOSE/refusal replies the reporters already saw.
  const std::string text =
      HttpBody(HttpGet(scrape.value()->endpoint(), "/metrics"));
  EXPECT_EQ(ScrapedValue(text, "ldp_ingest_reports_accepted_total"),
            kShards * kCorpusReports);
  EXPECT_EQ(ScrapedValue(text, "ldp_ingest_reports_rejected_total"), 0u);
  EXPECT_EQ(ScrapedValue(text, "ldp_net_connections_total"), kShards + 1);
  EXPECT_EQ(ScrapedValue(text, "ldp_net_hello_accepted_total"), kShards);
  EXPECT_EQ(ScrapedValue(text, "ldp_net_hello_refused_total"), 1u);
  EXPECT_EQ(ScrapedValue(text, "ldp_net_shards_merged_total"), kShards);
  EXPECT_EQ(ScrapedValue(text, "ldp_net_shards_abandoned_total"), 0u);
  EXPECT_EQ(ScrapedValue(text, "ldp_session_shards_opened_total"), kShards);
  EXPECT_EQ(ScrapedValue(text, "ldp_session_shards_closed_total"), kShards);

  // The server-side stats agree with the scrape (one source of truth).
  const net::ReportServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.connections, kShards + 1);
  EXPECT_EQ(stats.shards_merged, kShards);
  EXPECT_EQ(stats.hello_rejected, 1u);

  // The journal saw the campaign's control-plane story.
  bool saw_refuse = false, saw_merge_exit = false;
  for (const obs::Event& event : journal.Events()) {
    saw_refuse |= event.kind == obs::EventKind::kHelloRefuse;
    saw_merge_exit |= event.kind == obs::EventKind::kMergeExit;
  }
  EXPECT_TRUE(saw_refuse);
  EXPECT_TRUE(saw_merge_exit);

  scrape.value()->Stop();
  server.value()->Stop(/*drain=*/true);
}

TEST(ObsServer, SnapshotBitIdenticalWithTelemetry) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  std::vector<std::string> streams;
  for (size_t s = 0; s < 4; ++s) {
    streams.push_back(MakeHonestStream(pipeline, /*seed=*/300 + s));
  }

  auto run = [&](bool telemetry) -> std::string {
    obs::MetricsRegistry registry;
    obs::EventJournal journal(256);
    api::ServerSessionOptions options;
    options.ingest_threads = 2;
    if (telemetry) {
      options.metrics = &registry;
      options.journal = &journal;
    }
    auto session = pipeline.NewServer(options);
    EXPECT_TRUE(session.ok());
    for (const std::string& stream : streams) {
      const size_t shard = session.value().OpenShard();
      EXPECT_TRUE(session.value().Feed(shard, stream).ok());
      EXPECT_TRUE(session.value().CloseShard(shard).ok());
    }
    if (telemetry) {
      // Sanity: the instrumentation actually ran in this configuration.
      EXPECT_EQ(
          registry.GetCounter("ldp_ingest_reports_accepted_total")->Value(),
          4 * kCorpusReports);
      EXPECT_GT(journal.recorded(), 0u);
    }
    return session.value().Snapshot();
  };

  const std::string with_telemetry = run(true);
  const std::string without_telemetry = run(false);
  EXPECT_EQ(with_telemetry, without_telemetry);
}

}  // namespace
}  // namespace ldp
