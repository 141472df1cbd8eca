// ldp_serve: the deployed collector — an api::Pipeline ServerSession behind
// a net::ReportServer, ingesting privatized report streams from remote
// ldp_report --connect reporters over TCP or a Unix-domain socket. Each
// connection negotiates its stream header (schema hash, ε, mechanism/oracle
// kinds) before a single report byte is decoded, then becomes one session
// shard: framing errors, disconnects, and slow-loris stalls poison or
// abandon only that shard. Closed shards merge as they close: the sums are
// exact, so a campaign of reporters reproduces the file-based
// `ldp_aggregate shard-0 ... shard-N-1` run bit for bit no matter when
// each reporter connects or finishes. --expect-shards N admits ordinals
// 0..N-1 only, each at most once per epoch.
//
//   ldp_serve --schema FILE --epsilon E --listen tcp:HOST:PORT|unix:PATH
//             [--expect-shards N] [--mechanism hm|pm]
//             [--oracle oue|grr|sue|olh|he|the]
//             [--epochs N]
//             [--acceptors N] [--threads T]
//             [--max-rejected N] [--idle-timeout-ms N] [--confidence C]
//             [--snapshot-out FILE] [--metrics ENDPOINT]
//             [--stats-interval-s N] [--journal-out FILE]
//             [--trace-out FILE] [--wal-dir DIR] [--wal-fsync]
//             [--accept-snapshots] [--relay-to ENDPOINT] [--node-id N]
//             [--relay-interval-s N] [--campaign-key KEY] [--version]
//
// SIGTERM/SIGINT drain gracefully: stop accepting, let in-flight reporters
// finish (bounded by the idle timeout), then write the session snapshot
// (--snapshot-out) and print per-epoch estimates in ldp_aggregate's format.
// SIGUSR1 is the operator's epoch advance (ReportServer::AdvanceEpoch): it
// prints "epoch advanced to N", or the refusal while shards are open or
// once the --epochs plan is spent. No reporter can advance the epoch.
//
// Distributed tier (src/relay/): --wal-dir journals every accepted frame to
// a per-shard write-ahead log before it reaches the session, so restarting
// after a crash with the same flags replays to the exact pre-crash state
// (reporters that reconnect are told how many bytes are already durable
// and skip them). --relay-to turns this node into an edge that
// periodically — and finally, at drain — ships its cumulative session
// snapshot upstream; the upstream (run with --accept-snapshots) folds the
// latest snapshot per node at its own drain, which keeps a two-tier
// campaign bit-identical to the tree-shaped file-based run.
//
// Observability: every run carries an obs::MetricsRegistry and campaign
// EventJournal wired through the session, ingester, thread pool, and
// network server. `--metrics tcp:HOST:PORT|unix:PATH` serves them live
// (GET /metrics Prometheus text, /metrics.json, /journal, /trace,
// /healthz); `--stats-interval-s N` prints a one-line stderr summary every
// N seconds; `--journal-out`/`--trace-out` dump the event journal at exit
// as JSON lines / Chrome trace JSON. Exit stats are the registry's own
// JSON serialization — the same bytes a live scrape would have returned,
// so the two can never drift. Telemetry is write-only observation: the
// estimates are bit-identical with every flag above on or off.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/schema_text.h"
#include "tool_flags.h"
#include "estimate_printer.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "relay/forwarder.h"
#include "relay/frame_wal.h"
#include "stream/shard_ingester.h"

namespace {

using namespace ldp;  // NOLINT: CLI binary

// A process-directed signal may run its handler on any thread; lock-free
// atomics are async-signal-safe and visible to the main loop.
std::atomic<bool> g_stop{false};
std::atomic<bool> g_advance{false};

void HandleSignal(int /*signum*/) { g_stop = true; }
void HandleAdvanceSignal(int /*signum*/) { g_advance = true; }

void Usage() {
  std::fprintf(
      stderr,
      "usage: ldp_serve --schema FILE --epsilon E --listen ENDPOINT\n"
      "                 [--expect-shards N] [--mechanism hm|pm]\n"
      "                 [--oracle oue|grr|sue|olh|he|the]\n"
      "                 [--epochs N]\n"
      "                 [--acceptors N] [--threads T]\n"
      "                 [--max-rejected N] [--idle-timeout-ms N]\n"
      "                 [--confidence C] [--snapshot-out FILE]\n"
      "                 [--metrics ENDPOINT] [--stats-interval-s N]\n"
      "                 [--journal-out FILE] [--trace-out FILE]\n"
      "                 [--wal-dir DIR] [--wal-fsync] [--accept-snapshots]\n"
      "                 [--relay-to ENDPOINT] [--node-id N]\n"
      "                 [--relay-interval-s N] [--campaign-key KEY]\n"
      "                 [--version]\n"
      "ENDPOINT is tcp:HOST:PORT (port 0 = ephemeral, printed on stdout)\n"
      "or unix:PATH. SIGTERM drains and writes the snapshot/estimates;\n"
      "SIGUSR1 advances the collection epoch (refused while shards are\n"
      "open or once the --epochs plan is spent).\n"
      "Shards merge as they close; the sums are exact, so the estimates\n"
      "equal the file-based ldp_aggregate run. --expect-shards N admits\n"
      "ordinals 0..N-1 only, each once per epoch.\n"
      "--campaign-key requires protocol v3 HELLOs carrying a reporter id\n"
      "authenticated with the shared key; spend is then accounted per\n"
      "reporter and unauthenticated connections are refused.\n"
      "--metrics serves GET /metrics (Prometheus text), /metrics.json,\n"
      "/journal, /trace and /healthz on a second endpoint.\n"
      "--wal-dir journals accepted frames for exact crash replay;\n"
      "--relay-to ships this node's session snapshot upstream (an edge);\n"
      "--accept-snapshots lets this node fold downstream edges (a root).\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::HandleVersionFlag(argc, argv, "ldp_serve")) return 0;
  std::string schema_path, listen_spec, snapshot_out;
  std::string metrics_spec, journal_out, trace_out;
  std::string wal_dir, relay_spec;
  bool wal_fsync = false;
  tools::IdentityFlags identity;
  std::string identity_error;
  relay::RelayForwarderOptions relay_options;
  unsigned stats_interval_s = 0;
  double epsilon = 0.0;
  double confidence = 0.95;
  uint32_t epochs = 1;
  unsigned threads = 0;
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  stream::ShardIngester::Options ingest_options;
  net::ReportServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    bool parsed = true;  // false: exit 2 with the usage text below
    if (arg == "--schema") {
      schema_path = next();
    } else if (arg == "--epsilon") {
      parsed = tools::ParseRealFlag(next(), &epsilon);
    } else if (arg == "--listen") {
      listen_spec = next();
    } else if (arg == "--epochs") {
      parsed = tools::ParseCountFlag(next(), &epochs);
    } else if (arg == "--expect-shards") {
      parsed = tools::ParseCountFlag(next(), &server_options.expected_shards);
    } else if (arg == "--acceptors") {
      parsed = tools::ParseCountFlag(next(), &server_options.acceptors,
                                     tools::kMaxThreadsFlag);
    } else if (arg == "--threads") {
      parsed = tools::ParseCountFlag(next(), &threads, tools::kMaxThreadsFlag);
    } else if (arg == "--idle-timeout-ms") {
      parsed = tools::ParseCountFlag(next(), &server_options.idle_timeout_ms);
    } else if (arg == "--max-rejected") {
      parsed = tools::ParseCountFlag(next(), &ingest_options.max_rejected);
    } else if (arg == "--confidence") {
      parsed = tools::ParseRealFlag(next(), &confidence);
    } else if (arg == "--snapshot-out") {
      snapshot_out = next();
    } else if (arg == "--metrics") {
      metrics_spec = next();
    } else if (arg == "--stats-interval-s") {
      parsed = tools::ParseCountFlag(next(), &stats_interval_s);
    } else if (arg == "--journal-out") {
      journal_out = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--wal-dir") {
      wal_dir = next();
    } else if (arg == "--wal-fsync") {
      wal_fsync = true;
    } else if (arg == "--accept-snapshots") {
      server_options.accept_snapshots = true;
    } else if (arg == "--relay-to") {
      relay_spec = next();
    } else if (tools::ParseIdentityFlag(
                   arg, next, tools::kFlagCampaignKey | tools::kFlagNodeId,
                   &identity, &identity_error)) {
      if (!identity_error.empty()) {
        std::fprintf(stderr, "%s\n", identity_error.c_str());
        Usage();
        return 2;
      }
    } else if (arg == "--relay-interval-s") {
      int seconds = 0;
      // The interval is kept in int milliseconds: refuse what * 1000 would
      // overflow.
      parsed = tools::ParseCountFlag(next(), &seconds,
                                     std::numeric_limits<int>::max() / 1000);
      if (parsed) relay_options.interval_ms = seconds * 1000;
    } else if (arg == "--mechanism") {
      parsed = tools::ParseMechanismFlag(next(), &mechanism);
    } else if (arg == "--oracle") {
      parsed = tools::ParseOracleFlag(next(), &oracle);
    } else {
      parsed = false;
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (schema_path.empty() || listen_spec.empty() || epsilon <= 0.0 ||
      epochs == 0) {
    Usage();
    return 2;
  }
  relay_options.node_id = identity.node_id;
  server_options.campaign_key = identity.campaign_key;

  auto endpoint = net::Endpoint::Parse(listen_spec);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "%s\n", endpoint.status().ToString().c_str());
    return 1;
  }
  auto schema = data::ReadSchemaFile(schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto config = api::PipelineConfig::FromSchema(schema.value(), epsilon);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  config.value().mechanism = mechanism;
  config.value().oracle = oracle;
  config.value().plan.epochs = epochs;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  // Telemetry is always on: the registry and journal are cheap enough to
  // carry unconditionally, and the exit stats below are their serialization.
  obs::MetricsRegistry registry;
  obs::EventJournal journal(8192);

  api::ServerSessionOptions session_options;
  session_options.ingest = ingest_options;
  session_options.ingest_threads = threads;
  session_options.metrics = &registry;
  session_options.journal = &journal;
  auto server_session = pipeline.value().NewServer(session_options);
  if (!server_session.ok()) {
    std::fprintf(stderr, "%s\n", server_session.status().ToString().c_str());
    return 1;
  }
  api::ServerSession& session = server_session.value();

  // The WAL replays before the server starts listening: a crashed run's
  // frames are back in the session, still-open shards become resume
  // entries, and already-merged ordinals start completed.
  const stream::StreamHeader expected_header = pipeline.value().header();
  std::unique_ptr<relay::FrameWal> wal;
  relay::WalReplaySummary replay;
  if (!wal_dir.empty()) {
    relay::FrameWal::Options wal_options;
    wal_options.fsync = wal_fsync;
    wal_options.expected = &expected_header;
    wal_options.metrics = &registry;
    wal_options.journal = &journal;
    auto opened =
        relay::FrameWal::Open(wal_dir, &session, wal_options, &replay);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    wal = std::move(opened).value();
    server_options.wal = wal.get();
    server_options.resume_shards = replay.resume_shards;
    server_options.completed_ordinals = replay.completed_ordinals;
    if (replay.shards_replayed + replay.shards_resumed +
            replay.shards_corrupt + replay.truncated_tails >
        0) {
      std::printf(
          "wal replay: %llu shard(s) merged, %llu resumable, %llu corrupt, "
          "%llu frame(s), %llu torn tail(s) truncated\n",
          static_cast<unsigned long long>(replay.shards_replayed),
          static_cast<unsigned long long>(replay.shards_resumed),
          static_cast<unsigned long long>(replay.shards_corrupt),
          static_cast<unsigned long long>(replay.frames_replayed),
          static_cast<unsigned long long>(replay.truncated_tails));
    }
  }

  server_options.metrics = &registry;
  server_options.journal = &journal;
  auto server = net::ReportServer::Start(&session, expected_header,
                                         endpoint.value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<obs::MetricsServer> metrics_server;
  if (!metrics_spec.empty()) {
    auto metrics_endpoint = net::Endpoint::Parse(metrics_spec);
    if (!metrics_endpoint.ok()) {
      std::fprintf(stderr, "%s\n",
                   metrics_endpoint.status().ToString().c_str());
      return 1;
    }
    auto started = obs::MetricsServer::Start(metrics_endpoint.value(),
                                             &registry, &journal);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(started).value();
  }

  std::unique_ptr<relay::RelayForwarder> forwarder;
  if (!relay_spec.empty()) {
    auto upstream = net::Endpoint::Parse(relay_spec);
    if (!upstream.ok()) {
      std::fprintf(stderr, "%s\n", upstream.status().ToString().c_str());
      return 1;
    }
    relay_options.metrics = &registry;
    relay_options.journal = &journal;
    auto started =
        relay::RelayForwarder::Start(&session, upstream.value(),
                                     relay_options);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
      return 1;
    }
    forwarder = std::move(started).value();
    std::printf("relaying to %s as node %llu\n", relay_spec.c_str(),
                static_cast<unsigned long long>(relay_options.node_id));
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGUSR1, HandleAdvanceSignal);
  std::printf("listening on %s (eps = %g/epoch, %u epoch plan, "
              "%u event loop(s), %u session thread(s))\n",
              server.value()->endpoint().ToString().c_str(), epsilon, epochs, server_options.acceptors, threads);
  if (metrics_server != nullptr) {
    std::printf("metrics on %s\n",
                metrics_server->endpoint().ToString().c_str());
  }
  std::fflush(stdout);

  // Handles for the periodic summary; get-or-create, so these are the same
  // cells the session/server instrumentation writes through.
  const obs::IngestMetrics ingest_view =
      obs::IngestMetrics::ForRegistry(&registry);
  const obs::NetServerMetrics net_view =
      obs::NetServerMetrics::ForRegistry(&registry);

  // The event loops own all the work; this thread just waits for signals:
  // SIGUSR1 advances the epoch, SIGTERM/SIGINT drain.
  const auto stats_interval = std::chrono::seconds(
      stats_interval_s == 0 ? 0 : stats_interval_s);
  auto next_stats = std::chrono::steady_clock::now() + stats_interval;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_advance.exchange(false)) {
      const Status advanced = server.value()->AdvanceEpoch();
      if (advanced.ok()) {
        std::printf("epoch advanced to %u\n", session.current_epoch());
      } else {
        std::printf("epoch advance refused: %s\n",
                    advanced.ToString().c_str());
      }
      std::fflush(stdout);
    }
    if (stats_interval_s != 0 &&
        std::chrono::steady_clock::now() >= next_stats) {
      next_stats += stats_interval;
      std::fprintf(
          stderr,
          "[stats] conns=%llu accepted=%llu rejected=%llu bytes=%llu "
          "merged=%llu abandoned=%llu refused=%llu\n",
          static_cast<unsigned long long>(net_view.connections->Value()),
          static_cast<unsigned long long>(ingest_view.accepted->Value()),
          static_cast<unsigned long long>(ingest_view.rejected->Value()),
          static_cast<unsigned long long>(ingest_view.bytes->Value()),
          static_cast<unsigned long long>(net_view.shards_merged->Value()),
          static_cast<unsigned long long>(net_view.shards_abandoned->Value()),
          static_cast<unsigned long long>(net_view.hello_refused->Value()));
      std::fflush(stderr);
    }
  }
  std::printf("draining...\n");
  std::fflush(stdout);
  // Drain order: flip /healthz first (load balancers route away), finish
  // in-flight shards, ship the edge's final cumulative snapshot upstream,
  // fold whatever downstream edges shipped here, then stop the scrape
  // endpoint — so a last scrape still sees the post-fold counters.
  if (metrics_server != nullptr) metrics_server->SetDraining(true);
  server.value()->Stop(/*drain=*/true);
  if (forwarder != nullptr) {
    const Status flushed = forwarder->Stop(/*final_flush=*/true);
    if (!flushed.ok()) {
      std::fprintf(stderr, "relay final flush failed: %s\n",
                   flushed.ToString().c_str());
    }
  }
  {
    const Status folded = server.value()->FoldRelaySnapshots();
    if (!folded.ok()) {
      std::fprintf(stderr, "relay fold failed: %s\n",
                   folded.ToString().c_str());
    }
  }
  if (metrics_server != nullptr) metrics_server->Stop();

  // Exit stats are the registry's own JSON serialization — byte-compatible
  // with what a live /metrics.json scrape would have returned at this
  // instant, so the two views cannot drift apart.
  std::printf("exit stats: %s\n", obs::ToJson(registry).c_str());

  // Per-reporter budget accounting: one line per authenticated reporter id.
  // The anonymous ledger (empty id) is the campaign plan itself — its spend
  // is the session's epsilon_spent(), already covered by the estimates.
  for (const auto& [reporter, ledger] : session.accountant().ledgers()) {
    if (reporter == kAnonymousReporter) continue;
    std::printf("reporter %s: eps spent %g of %g over %zu epoch(s), "
                "%llu refusal(s)\n",
                reporter.c_str(), ledger.spent,
                session.accountant().lifetime_budget(),
                ledger.epoch_spend.size(),
                static_cast<unsigned long long>(ledger.refusals));
  }

  if (!journal_out.empty()) {
    std::ofstream out(journal_out, std::ios::trunc);
    const std::string lines = journal.ToJsonLines();
    out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "write error on %s\n", journal_out.c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::trunc);
    const std::string trace = journal.ToChromeTrace();
    out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "write error on %s\n", trace_out.c_str());
      return 1;
    }
  }

  if (!snapshot_out.empty()) {
    const std::string bytes = session.Snapshot();
    std::ofstream out(snapshot_out, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "write error on %s\n", snapshot_out.c_str());
      return 1;
    }
    std::printf("wrote session snapshot to %s (%zu bytes, %u epoch(s))\n\n",
                snapshot_out.c_str(), bytes.size(), session.num_epochs());
  }

  return tools::PrintSessionEstimates(schema.value(), pipeline.value(),
                                      session, confidence,
                                      /*selected_epoch=*/-1);
}
