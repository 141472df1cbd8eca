// Network ingest throughput: what the socket transport costs relative to
// feeding the same bytes into a ServerSession in process. Pre-encodes K
// shards of mixed OUE reports once, then runs four delivery paths over
// identical bytes:
//
//   inproc    ServerSession::Feed from K producer threads (no sockets) —
//             the concurrent session path, the upper bound;
//   uds       K CollectorClients over a loopback Unix-domain socket into a
//             ReportServer (K acceptors) wrapping an identical session —
//             the anonymous control for uds_auth;
//   uds_auth  uds under a campaign key: every HELLO carries a reporter id
//             and an HMAC-SHA256 tag the server verifies. Authentication
//             touches only the one HELLO per shard, so this row's DATA-path
//             latency quantiles should match the anonymous uds row — the
//             proof that HMAC verification stays off the hot path. Checked
//             against a file-based keyed reference (OpenShard per reporter
//             id), ledger section included;
//   tcp       the same over TCP loopback (adds the kernel TCP stack).
//
// Every path must ingest exactly `reports` reports and produce the same
// session snapshot — the bench doubles as a determinism check. Emits
// BENCH_net_ingest.json next to the binary for trend tracking.
//
// The WAL, relay and many-reporter paths are measured end to end by
// campaign_bench: `bulk_wal` (socket ingest with the write-ahead log on,
// then its replay), `live_relay` (a relay edge forwarding to a root) and
// `fleet_10k` (10,000 reporters multiplexed over 4 connections), each
// checked bit for bit against a file-based reference.
//
//   LDP_BENCH_USERS   total reports across shards (default 1000000)
//   LDP_BENCH_FAST=1  shrink for smoke runs (100000)

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
                                      uint64_t reports) {
  auto client = pipeline.NewClient();
  if (!client.ok()) std::exit(1);
  MixedTuple tuple(8);
  for (uint32_t j = 0; j < 8; ++j) {
    tuple[j] = (j % 2 == 0)
                   ? AttributeValue::Numeric(0.25)
                   : AttributeValue::Categorical(j % 4);
  }
  std::vector<std::string> shards;
  const std::vector<IndexRange> ranges = SplitRange(reports, kShards);
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::string bytes;
    Rng rng(1000 + s);
    for (uint64_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      if (!client.value().AppendFrame(tuple, &rng, &bytes).ok()) {
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
};

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

// K CollectorClients through a loopback ReportServer; `auth` keys the
// campaign and signs every HELLO. `registry` collects the server's
// telemetry (DATA-message latency histogram); since the snapshot is
// compared against the uninstrumented in-process run, this also re-checks
// that metrics never perturb the estimates.
double RunNetworked(const api::Pipeline& pipeline,
                    const std::vector<std::string>& shards,
                    const net::Endpoint& endpoint, bool auth,
                    obs::MetricsRegistry* registry, std::string* snapshot) {
  api::ServerSessionOptions session_options;
  session_options.ingest_threads = 2;
  auto server_session = pipeline.NewServer(session_options);
  if (!server_session.ok()) std::exit(1);

  net::ReportServerOptions server_options;
  server_options.metrics = registry;
  server_options.acceptors = static_cast<unsigned>(shards.size());
  // Strict ordinal barrier: the cross-path snapshot-equality check relies
  // on merge order being independent of which reporter finishes first.
  server_options.expected_shards = shards.size();
  if (auth) server_options.campaign_key = kBenchCampaignKey;
  auto server = net::ReportServer::Start(
      &server_session.value(), pipeline.header(), endpoint, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    std::exit(1);
  }
  const net::Endpoint resolved = server.value()->endpoint();

  const auto started = std::chrono::steady_clock::now();
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
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  *snapshot = server_session.value().Snapshot();
  return seconds;
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
    bool auth;
  } kPaths[] = {{"inproc", nullptr, false},
                {"uds", &uds, false},
                {"uds_auth", &uds, true},
                {"tcp", &tcp, false}};
  for (const auto& path : kPaths) {
    std::string snapshot;
    obs::MetricsRegistry registry;
    const double seconds =
        path.endpoint == nullptr
            ? RunInProcess(pipeline, shards, &snapshot)
            : RunNetworked(pipeline, shards, *path.endpoint, path.auth,
                           &registry, &snapshot);
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
    results.push_back(result);
    std::printf("%-14s %10.3f %14.0f %10.1f %10.0f %10.0f\n", result.path,
                result.seconds, result.reports_per_sec, result.mib_per_sec,
                result.data_p50_us, result.data_p99_us);
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
                   "\"data_p50_us\": %.1f, \"data_p99_us\": %.1f}%s\n",
                   results[i].path, results[i].seconds,
                   results[i].reports_per_sec, results[i].mib_per_sec,
                   results[i].data_p50_us, results[i].data_p99_us,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_net_ingest.json\n");
  }
  return 0;
}
