// Network ingest throughput: what the socket transport costs relative to
// feeding the same bytes into a ServerSession in process. Pre-encodes K
// shards of mixed OUE reports once, then sweeps three delivery paths over
// identical bytes:
//
//   inproc         ServerSession::Feed from K producer threads (no
//                  sockets) — the PR 4 session path, the upper bound;
//   uds            K CollectorClients over a loopback Unix-domain socket
//                  into a ReportServer (K acceptors) wrapping an identical
//                  session;
//   uds_auth       uds under a campaign key: every HELLO carries a
//                  reporter id and an HMAC-SHA256 tag the server verifies.
//                  Authentication touches only the one HELLO per shard, so
//                  this row's DATA-path latency quantiles should match the
//                  anonymous uds row — the proof that HMAC verification
//                  stays off the hot path. Checked against a file-based
//                  keyed reference (OpenShard per reporter id), ledger
//                  section included;
//   tcp            the same over TCP loopback (adds the kernel TCP stack);
//   uds_wal        uds with the write-ahead frame log on (--wal-dir): what
//                  crash durability costs on the accepted-frame path;
//   uds_relay      a 1-hop relay tier: the uds edge plus a RelayForwarder
//                  shipping the session to a root collector whose drain
//                  fold produces the final snapshot;
//   uds_relay_wal  the full distributed deployment, relay and WAL both on.
//
// Every path must ingest exactly `reports` reports and produce the same
// session snapshot — the bench doubles as a determinism check (for the
// relay paths this is the two-tier bit-identity guarantee). Emits
// BENCH_net_ingest.json next to the binary for trend tracking; WAL rows
// carry `wal_bytes`, the log volume the run appended.
//
//   LDP_BENCH_USERS   total reports across shards (default 1000000)
//   LDP_BENCH_FAST=1  shrink for smoke runs (100000)

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "relay/forwarder.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace {

using namespace ldp;  // NOLINT: benchmark binary

constexpr size_t kShards = 4;
constexpr size_t kChunkBytes = 256 * 1024;

// The census-like 8-attribute schema bench_stream_ingest sweeps, OUE only.
api::Pipeline MakePipeline() {
  api::PipelineConfig config;
  config.attributes = {
      MixedAttribute::Numeric(),         MixedAttribute::Categorical(8),
      MixedAttribute::Numeric(),         MixedAttribute::Categorical(16),
      MixedAttribute::Numeric(),         MixedAttribute::Categorical(4),
      MixedAttribute::Numeric(),         MixedAttribute::Categorical(32)};
  config.epsilon = 4.0;
  auto pipeline = api::Pipeline::Create(std::move(config));
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(pipeline).value();
}

// Frame bytes only (no stream header): connections negotiate the header in
// HELLO; the in-process path prepends it explicitly.
std::vector<std::string> EncodeShards(const api::Pipeline& pipeline,
                                      uint64_t reports,
                                      size_t num_shards = kShards) {
  auto client = pipeline.NewClient();
  if (!client.ok()) std::exit(1);
  MixedTuple tuple(8);
  for (uint32_t j = 0; j < 8; ++j) {
    tuple[j] = (j % 2 == 0)
                   ? AttributeValue::Numeric(0.25)
                   : AttributeValue::Categorical(j % 4);
  }
  std::vector<std::string> shards;
  const std::vector<IndexRange> ranges = SplitRange(reports, num_shards);
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::string bytes;
    Rng rng(1000 + s);
    for (uint64_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      auto payload = client.value().EncodeReport(tuple, &rng);
      if (!payload.ok() ||
          !stream::AppendFrame(payload.value(), &bytes).ok()) {
        std::fprintf(stderr, "encode failed\n");
        std::exit(1);
      }
    }
    shards.push_back(std::move(bytes));
  }
  return shards;
}

struct RunResult {
  const char* path = "";
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double mib_per_sec = 0.0;
  /// Networked paths only: per-DATA-message ingest latency (payload read +
  /// session Feed) from the server's ldp_net_data_read_us histogram; 0 for
  /// the in-process path, which has no DATA messages.
  double data_p50_us = 0.0;
  double data_p99_us = 0.0;
  /// WAL paths only: bytes the run appended to the frame log.
  uint64_t wal_bytes = 0;
  bool has_wal = false;
};

// Empties (or implicitly creates, via FrameWal::Open) the bench WAL dir so
// a run never replays the previous path's log.
void CleanWalDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = ::readdir(handle)) {
    const std::string file = entry->d_name;
    if (file == "." || file == "..") continue;
    ::unlink((dir + "/" + file).c_str());
  }
  ::closedir(handle);
}

uint64_t TotalBytes(const std::vector<std::string>& shards) {
  uint64_t total = 0;
  for (const std::string& shard : shards) total += shard.size();
  return total;
}

// K producer threads feeding one concurrent session directly.
double RunInProcess(const api::Pipeline& pipeline,
                    const std::vector<std::string>& shards,
                    std::string* snapshot) {
  api::ServerSessionOptions options;
  options.ingest_threads = 2;
  auto server = pipeline.NewServer(options);
  if (!server.ok()) std::exit(1);
  api::ServerSession& session = server.value();
  const std::string header = stream::EncodeStreamHeader(pipeline.header());

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  std::vector<size_t> ids(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) ids[s] = session.OpenShard();
  for (size_t s = 0; s < shards.size(); ++s) {
    producers.emplace_back([&, s] {
      if (!session.Feed(ids[s], header).ok()) std::exit(1);
      const std::string& bytes = shards[s];
      for (size_t offset = 0; offset < bytes.size(); offset += kChunkBytes) {
        const size_t take = std::min(kChunkBytes, bytes.size() - offset);
        if (!session.Feed(ids[s], bytes.data() + offset, take).ok()) {
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (const size_t id : ids) {
    if (!session.CloseShard(id).ok()) std::exit(1);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  *snapshot = session.Snapshot();
  return seconds;
}

// K CollectorClients through a loopback ReportServer; `wal` adds the
// frame log to the accepted-frame path and `relay` interposes a full
// second tier (forwarder + root collector, whose folded session is the
// result). `registry` collects the edge server's telemetry (DATA-message
// latency histogram); since the snapshot is compared against the
// uninstrumented in-process run, this also re-checks that metrics never
// perturb the estimates.
// Campaign key for the authenticated row and its per-shard reporter ids.
constexpr const char* kBenchCampaignKey = "bench-net-ingest-key";

std::string BenchReporterId(size_t shard) {
  return "bench-reporter-" + std::to_string(shard);
}

// The file-based reference for the authenticated row: the same shard bytes
// opened under the same reporter ids, so the snapshot's ledger section is
// part of the equality check.
std::string AuthReferenceSnapshot(const api::Pipeline& pipeline,
                                  const std::vector<std::string>& shards) {
  auto session = pipeline.NewServer();
  if (!session.ok()) std::exit(1);
  const std::string header = stream::EncodeStreamHeader(pipeline.header());
  for (size_t s = 0; s < shards.size(); ++s) {
    auto shard = session.value().OpenShard(BenchReporterId(s));
    if (!shard.ok() ||
        !session.value().Feed(shard.value(), header).ok() ||
        !session.value().Feed(shard.value(), shards[s]).ok() ||
        !session.value().CloseShard(shard.value()).ok()) {
      std::exit(1);
    }
  }
  return session.value().Snapshot();
}

double RunNetworked(const api::Pipeline& pipeline,
                    const std::vector<std::string>& shards,
                    const net::Endpoint& endpoint, bool wal, bool relay,
                    bool auth, obs::MetricsRegistry* registry,
                    std::string* snapshot, uint64_t* wal_bytes) {
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = 2;
  auto server_session = pipeline.NewServer(session_options);
  if (!server_session.ok()) std::exit(1);

  const std::string wal_dir =
      "/tmp/ldp_bench_net_wal_" + std::to_string(::getpid());
  std::unique_ptr<relay::FrameWal> frame_wal;
  if (wal) {
    CleanWalDir(wal_dir);
    relay::FrameWal::Options wal_options;
    wal_options.metrics = registry;
    auto opened = relay::FrameWal::Open(wal_dir, &server_session.value(),
                                        wal_options, nullptr);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      std::exit(1);
    }
    frame_wal = std::move(opened).value();
  }

  // The optional upstream tier: a root collector the edge relays to.
  auto root_session = pipeline.NewServer();
  if (!root_session.ok()) std::exit(1);
  std::unique_ptr<net::ReportServer> root;
  if (relay) {
    net::ReportServerOptions root_options;
    root_options.accept_snapshots = true;
    net::Endpoint root_endpoint;
    root_endpoint.kind = net::Endpoint::Kind::kUnix;
    root_endpoint.path = "/tmp/ldp_bench_net_root_" +
                         std::to_string(::getpid()) + ".sock";
    auto started_root = net::ReportServer::Start(&root_session.value(),
                                                 pipeline.header(),
                                                 root_endpoint, root_options);
    if (!started_root.ok()) {
      std::fprintf(stderr, "%s\n",
                   started_root.status().ToString().c_str());
      std::exit(1);
    }
    root = std::move(started_root).value();
  }

  net::ReportServerOptions server_options;
  server_options.metrics = registry;
  server_options.acceptors = static_cast<unsigned>(shards.size());
  // Strict ordinal barrier: the cross-path snapshot-equality check relies
  // on merge order being independent of which reporter finishes first.
  server_options.expected_shards = shards.size();
  server_options.wal = frame_wal.get();
  if (auth) server_options.campaign_key = kBenchCampaignKey;
  auto server = net::ReportServer::Start(
      &server_session.value(), pipeline.header(), endpoint, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    std::exit(1);
  }
  const net::Endpoint resolved = server.value()->endpoint();

  const auto started = std::chrono::steady_clock::now();
  std::unique_ptr<relay::RelayForwarder> forwarder;
  if (relay) {
    relay::RelayForwarderOptions forward_options;
    // Quiet cadence: only the synchronous drain flush ships, so the relay
    // rows measure the deterministic cost of the tier, not timer jitter.
    forward_options.interval_ms = 60000;
    forward_options.metrics = registry;
    auto started_forwarder = relay::RelayForwarder::Start(
        &server_session.value(), root->endpoint(), forward_options);
    if (!started_forwarder.ok()) std::exit(1);
    forwarder = std::move(started_forwarder).value();
  }
  std::vector<std::thread> reporters;
  for (size_t s = 0; s < shards.size(); ++s) {
    reporters.emplace_back([&, s] {
      net::CollectorClientOptions client_options;
      if (auth) {
        client_options.reporter_id = BenchReporterId(s);
        client_options.campaign_key = kBenchCampaignKey;
      }
      auto connection = net::CollectorClient::Connect(
          resolved, pipeline.header(), /*ordinal=*/s, client_options);
      if (!connection.ok()) {
        std::fprintf(stderr, "%s\n", connection.status().ToString().c_str());
        std::exit(1);
      }
      // Connect negotiated the shard on channel 0.
      if (!connection.value()
               .Send(/*channel=*/0, shards[s].data(), shards[s].size())
               .ok()) {
        std::exit(1);
      }
      auto summary = connection.value().CloseShard(/*channel=*/0);
      if (!summary.ok() || !summary.value().status.ok()) std::exit(1);
    });
  }
  for (std::thread& reporter : reporters) reporter.join();
  server.value()->Stop(/*drain=*/true);
  if (relay) {
    // The drain sequence the tools run: final flush upstream, then the
    // root drains and folds. The fold is part of what the tier costs.
    if (!forwarder->Stop(/*final_flush=*/true).ok()) std::exit(1);
    root->Stop(/*drain=*/true);
    if (!root->FoldRelaySnapshots().ok()) std::exit(1);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (wal && registry != nullptr) {
    *wal_bytes = obs::WalMetrics::ForRegistry(registry).bytes->Value();
  }
  *snapshot = relay ? root_session.value().Snapshot()
                    : server_session.value().Snapshot();
  return seconds;
}

// --- reporter sweep --------------------------------------------------------
//
// How the event-driven edge scales with the number of logical reporters:
// R shards multiplexed as channels over kSweepConnections real
// connections (ordinal s rides connection s % kSweepConnections), closes
// pipelined so the strict merge barrier never idles a connection. Each
// row records aggregate throughput and the p99 shard-admission latency
// (HELLO -> HELLO_OK round trip as the reporter sees it, while the
// connection's other channels keep streaming).

constexpr size_t kSweepConnections = 16;

struct SweepResult {
  size_t reporters = 0;
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double accept_p99_us = 0.0;
};

// The file-based reference for one sweep split: the same R shard streams
// fed into a session in ordinal order.
std::string SweepReferenceSnapshot(const api::Pipeline& pipeline,
                                   const std::vector<std::string>& shards) {
  auto session = pipeline.NewServer();
  if (!session.ok()) std::exit(1);
  const std::string header = stream::EncodeStreamHeader(pipeline.header());
  for (const std::string& bytes : shards) {
    const size_t shard = session.value().OpenShard();
    if (!session.value().Feed(shard, header).ok() ||
        !session.value().Feed(shard, bytes).ok() ||
        !session.value().CloseShard(shard).ok()) {
      std::exit(1);
    }
  }
  return session.value().Snapshot();
}

SweepResult RunReporterSweep(const api::Pipeline& pipeline,
                             const net::Endpoint& endpoint,
                             const std::vector<std::string>& shards,
                             uint64_t reports, std::string* snapshot) {
  const size_t reporters = shards.size();
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = 2;
  auto session = pipeline.NewServer(session_options);
  if (!session.ok()) std::exit(1);
  net::ReportServerOptions server_options;
  server_options.acceptors = 4;
  server_options.expected_shards = reporters;
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    std::exit(1);
  }
  const net::Endpoint resolved = server.value()->endpoint();

  const size_t connections = std::min(kSweepConnections, reporters);
  std::vector<std::vector<double>> admit_us(connections);
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      // Connect negotiates this connection's first reporter (ordinal c);
      // every later reporter is one more channel on the same socket.
      auto admit_started = std::chrono::steady_clock::now();
      auto client = net::CollectorClient::Connect(resolved, pipeline.header(),
                                                  /*ordinal=*/c);
      if (!client.ok()) {
        std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
        std::exit(1);
      }
      auto record = [&] {
        admit_us[c].push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - admit_started)
                .count());
      };
      record();
      std::vector<uint32_t> channels = {0};
      for (size_t ordinal = c;; ) {
        const uint32_t channel = channels.back();
        const std::string& bytes = shards[ordinal];
        if (!client.value().Send(channel, bytes.data(), bytes.size()).ok() ||
            !client.value().CloseShardBegin(channel).ok()) {
          std::exit(1);
        }
        ordinal += connections;
        if (ordinal >= reporters) break;
        admit_started = std::chrono::steady_clock::now();
        auto next = client.value().OpenShard(pipeline.header(), ordinal);
        if (!next.ok()) {
          std::fprintf(stderr, "%s\n", next.status().ToString().c_str());
          std::exit(1);
        }
        record();
        channels.push_back(next.value());
      }
      for (const uint32_t channel : channels) {
        auto summary = client.value().AwaitShardClosed(channel);
        if (!summary.ok() || !summary.value().status.ok()) std::exit(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.value()->Stop(/*drain=*/true);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  std::vector<double> all;
  for (const std::vector<double>& per_conn : admit_us) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  SweepResult result;
  result.reporters = reporters;
  result.seconds = seconds;
  result.reports_per_sec = static_cast<double>(reports) / seconds;
  result.accept_p99_us =
      all.empty() ? 0.0
                  : all[std::min(all.size() - 1, (all.size() * 99) / 100)];
  *snapshot = session.value().Snapshot();
  return result;
}

}  // namespace

int main() {
  uint64_t reports = 1000000;
  if (const char* users = std::getenv("LDP_BENCH_USERS"); users != nullptr) {
    reports = std::strtoull(users, nullptr, 10);
  } else if (const char* fast = std::getenv("LDP_BENCH_FAST");
             fast != nullptr && std::string(fast) == "1") {
    reports = 100000;
  }

  const api::Pipeline pipeline = MakePipeline();
  const std::vector<std::string> shards = EncodeShards(pipeline, reports);
  const uint64_t total_bytes = TotalBytes(shards);

  std::printf("=== Network ingest: loopback transport vs in-process ===\n");
  std::printf("(reports: %llu across %zu shards, schema: 8 attributes, "
              "eps = 4, OUE)\n\n",
              static_cast<unsigned long long>(reports), kShards);
  std::printf("%-14s %10s %14s %10s %10s %10s\n", "path", "seconds",
              "reports/s", "MiB/s", "p50(us)", "p99(us)");

  const net::Endpoint uds = {net::Endpoint::Kind::kUnix, "", 0,
                             "/tmp/ldp_bench_net_" +
                                 std::to_string(::getpid()) + ".sock"};
  const net::Endpoint tcp = {net::Endpoint::Kind::kTcp, "127.0.0.1", 0, ""};

  std::string reference;
  // The authenticated row carries per-reporter ledgers in its snapshot, so
  // it has its own keyed file-based reference rather than the anonymous one.
  const std::string auth_reference = AuthReferenceSnapshot(pipeline, shards);
  std::vector<RunResult> results;
  const struct {
    const char* name;
    const net::Endpoint* endpoint;  // null = in-process
    bool wal;
    bool relay;
    bool auth;
  } kPaths[] = {{"inproc", nullptr, false, false, false},
                {"uds", &uds, false, false, false},
                {"uds_auth", &uds, false, false, true},
                {"tcp", &tcp, false, false, false},
                {"uds_wal", &uds, true, false, false},
                {"uds_relay", &uds, false, true, false},
                {"uds_relay_wal", &uds, true, true, false}};
  for (const auto& path : kPaths) {
    std::string snapshot;
    obs::MetricsRegistry registry;
    uint64_t wal_bytes = 0;
    const double seconds =
        path.endpoint == nullptr
            ? RunInProcess(pipeline, shards, &snapshot)
            : RunNetworked(pipeline, shards, *path.endpoint, path.wal,
                           path.relay, path.auth, &registry, &snapshot,
                           &wal_bytes);
    if (path.auth) {
      if (snapshot != auth_reference) {
        std::fprintf(stderr, "%s: session diverged from keyed file-based "
                             "run\n",
                     path.name);
        return 1;
      }
    } else if (reference.empty()) {
      reference = snapshot;
    } else if (snapshot != reference) {
      std::fprintf(stderr, "%s: session diverged from in-process run\n",
                   path.name);
      return 1;
    }
    RunResult result;
    result.path = path.name;
    result.seconds = seconds;
    result.reports_per_sec = static_cast<double>(reports) / seconds;
    result.mib_per_sec =
        static_cast<double>(total_bytes) / seconds / (1024.0 * 1024.0);
    if (path.endpoint != nullptr) {
      const obs::Histogram* data_read_us =
          obs::NetServerMetrics::ForRegistry(&registry).data_read_us;
      result.data_p50_us = data_read_us->Quantile(0.5);
      result.data_p99_us = data_read_us->Quantile(0.99);
    }
    result.wal_bytes = wal_bytes;
    result.has_wal = path.wal;
    results.push_back(result);
    std::printf("%-14s %10.3f %14.0f %10.1f %10.0f %10.0f\n", result.path,
                result.seconds, result.reports_per_sec, result.mib_per_sec,
                result.data_p50_us, result.data_p99_us);
  }

  // Reporter sweep: C100K-style fan-in, R logical reporters multiplexed
  // over kSweepConnections sockets. Every sweep point re-checks
  // bit-identity against a file-based run of the same R-way split (the
  // split changes the shard contents, so each point has its own
  // reference).
  std::printf("\n=== Reporter sweep: %zu connections, R multiplexed "
              "shards ===\n",
              kSweepConnections);
  std::printf("%-14s %10s %14s %12s\n", "reporters", "seconds", "reports/s",
              "admit p99(us)");
  std::vector<SweepResult> sweeps;
  for (const size_t reporters : {size_t{100}, size_t{1000}, size_t{10000}}) {
    const std::vector<std::string> sweep_shards =
        EncodeShards(pipeline, reports, reporters);
    const std::string sweep_reference =
        SweepReferenceSnapshot(pipeline, sweep_shards);
    std::string snapshot;
    const net::Endpoint sweep_uds = {
        net::Endpoint::Kind::kUnix, "", 0,
        "/tmp/ldp_bench_net_sweep_" + std::to_string(::getpid()) + ".sock"};
    const SweepResult sweep =
        RunReporterSweep(pipeline, sweep_uds, sweep_shards, reports,
                         &snapshot);
    if (snapshot != sweep_reference) {
      std::fprintf(stderr,
                   "reporters=%zu: session diverged from file-based run\n",
                   reporters);
      return 1;
    }
    sweeps.push_back(sweep);
    std::printf("%-14zu %10.3f %14.0f %12.0f\n", sweep.reporters,
                sweep.seconds, sweep.reports_per_sec, sweep.accept_p99_us);
  }

  FILE* json = std::fopen("BENCH_net_ingest.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"benchmark\": \"net_ingest\",\n"
                 "  \"build\": %s,\n"
                 "  \"reports\": %llu,\n  \"shards\": %zu,\n  \"runs\": [\n",
                 BuildInfoJson().c_str(),
                 static_cast<unsigned long long>(reports), kShards);
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(json,
                   "    {\"path\": \"%s\", \"seconds\": %.6f, "
                   "\"reports_per_sec\": %.0f, \"mib_per_sec\": %.1f, "
                   "\"data_p50_us\": %.1f, \"data_p99_us\": %.1f",
                   results[i].path, results[i].seconds,
                   results[i].reports_per_sec, results[i].mib_per_sec,
                   results[i].data_p50_us, results[i].data_p99_us);
      if (results[i].has_wal) {
        std::fprintf(json, ", \"wal_bytes\": %llu",
                     static_cast<unsigned long long>(results[i].wal_bytes));
      }
      std::fprintf(json, "},\n");
    }
    for (size_t i = 0; i < sweeps.size(); ++i) {
      std::fprintf(json,
                   "    {\"path\": \"reporters_%zu\", \"reporters\": %zu, "
                   "\"seconds\": %.6f, \"reports_per_sec\": %.0f, "
                   "\"accept_p99_us\": %.1f}%s\n",
                   sweeps[i].reporters, sweeps[i].reporters,
                   sweeps[i].seconds, sweeps[i].reports_per_sec,
                   sweeps[i].accept_p99_us,
                   i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_net_ingest.json\n");
  }
  return 0;
}
