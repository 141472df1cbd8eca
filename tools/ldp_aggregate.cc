// ldp_aggregate: the server half of the deployment split, an api::Pipeline
// ServerSession at the CLI. Ingests any mix of shard inputs in one
// invocation — framed report streams written by ldp_report and multi-epoch
// session snapshots written by a previous ldp_aggregate --snapshot-out or
// ldp_serve --snapshot-out — merges them in argument order, and
// prints ε-LDP estimates with confidence intervals for every attribute, per
// epoch. The pipeline configuration (ε, mechanism, oracle) is taken from the
// first input's validated preamble, so a mismatched client population is
// rejected up front.
//
//   ldp_aggregate --schema FILE [--threads T] [--confidence C]
//                 [--max-rejected N] [--epoch E]
//                 [--snapshot-out FILE] SHARD...
//
// A SHARD argument that is a *directory* is a write-ahead frame log left
// by `ldp_serve --wal-dir` (src/relay/frame_wal.h): its shards replay in
// the exact merge order the crashed collector used, so aggregating a WAL
// directory reproduces that collector's session bit for bit — the offline
// escape hatch when a crashed edge is never restarted.
//
// Report streams fold into the epoch current when their batch of files
// starts (epoch 0 unless a WAL directory before them advanced it); session
// snapshots merge epoch by epoch. --epoch E prints only epoch E's
// estimates (default: every epoch). --threads T gives the ServerSession a
// T-worker ingest pool: inputs decode concurrently within the epoch but are
// always reduced in argument order, so the output is independent of
// scheduling and thread count — shards produced by ldp_report with the same
// seed reproduce an in-process ldp_collect run exactly. With --snapshot-out
// the full session state is written as a session snapshot, enabling
// tree-shaped aggregation across server generations and epochs.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/schema_text.h"
#include "estimate_printer.h"
#include "obs/metrics.h"
#include "relay/frame_wal.h"
#include "tool_flags.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"

namespace {

using namespace ldp;  // NOLINT: CLI binary

void Usage() {
  std::fprintf(
      stderr,
      "usage: ldp_aggregate --schema FILE [--threads T] [--confidence C]\n"
      "                     [--max-rejected N] [--epoch E]\n"
      "                     [--snapshot-out FILE] [--metrics-out FILE]\n"
      "                     [--version] SHARD...\n"
      "SHARD files are report streams (ldp_report) or session snapshots\n"
      "(ldp_aggregate or ldp_serve --snapshot-out), merged in argument\n"
      "order; a SHARD directory is an ldp_serve --wal-dir frame log,\n"
      "replayed in its logged merge order. --epoch E prints only epoch E.\n"
      "--metrics-out dumps the run's telemetry registry as JSON at exit.\n");
}

bool IsDirectory(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

// Reads at most the first `limit` bytes — enough for any preamble; snapshot
// files can be huge and are read in full only once, during ingestion.
Result<std::string> ReadFilePrefix(const std::string& path, size_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::string prefix(limit, '\0');
  in.read(prefix.data(), static_cast<std::streamsize>(limit));
  if (in.bad()) {
    return Status::IoError("read error on '" + path + "'");
  }
  prefix.resize(static_cast<size_t>(in.gcount()));
  return prefix;
}

// The pipeline configuration as recorded in a shard file's preamble, plus
// the epoch count a session snapshot carries.
struct InputConfig {
  double epsilon = 0.0;
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  uint32_t epochs = 1;
};

Result<InputConfig> PeekConfig(const std::string& path) {
  InputConfig config;
  stream::StreamHeader header;
  if (IsDirectory(path)) {
    relay::WalDirPeek peek;
    LDP_ASSIGN_OR_RETURN(peek, relay::PeekWalDir(path));
    LDP_ASSIGN_OR_RETURN(header,
                         stream::DecodeStreamHeader(peek.header_bytes));
    config.epochs = peek.epochs;
  } else {
    std::string prefix;
    LDP_ASSIGN_OR_RETURN(prefix, ReadFilePrefix(path, 64));
    if (prefix.size() < 4) {
      return Status::InvalidArgument("input shorter than a magic");
    }
    const uint32_t magic =
        internal_wire::LoadLittleEndian<uint32_t>(prefix.data());
    if (magic == api::kSessionSnapshotMagic) {
      api::SessionSnapshotConfig session;
      LDP_ASSIGN_OR_RETURN(session, api::DecodeSessionSnapshotConfig(prefix));
      config.epsilon = session.epsilon;
      config.mechanism = session.mechanism;
      config.oracle = session.oracle;
      config.epochs = session.epochs;
      return config;
    }
    if (magic != stream::kStreamMagic) {
      return Status::InvalidArgument(
          "input is neither a report stream nor a session snapshot");
    }
    LDP_ASSIGN_OR_RETURN(
        header, stream::DecodeStreamHeader(
                    prefix.data(),
                    std::min(prefix.size(), stream::kStreamHeaderBytes)));
  }
  config.epsilon = header.epsilon;
  config.mechanism = header.mechanism;
  config.oracle = header.oracle;
  return config;
}

// Reports accumulated across every epoch of `session`.
uint64_t SessionReports(const api::ServerSession& session) {
  uint64_t total = 0;
  for (uint32_t epoch = 0; epoch < session.num_epochs(); ++epoch) {
    total += session.num_reports(epoch).value();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::HandleVersionFlag(argc, argv, "ldp_aggregate")) return 0;
  std::string schema_path, snapshot_out, metrics_out;
  double confidence = 0.95;
  unsigned threads = 0;
  long selected_epoch = -1;
  stream::ShardIngester::Options ingest_options;
  std::vector<std::string> shard_paths;
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
    } else if (arg == "--confidence") {
      parsed = tools::ParseRealFlag(next(), &confidence);
    } else if (arg == "--threads") {
      parsed = tools::ParseCountFlag(next(), &threads, tools::kMaxThreadsFlag);
    } else if (arg == "--max-rejected") {
      parsed = tools::ParseCountFlag(next(), &ingest_options.max_rejected);
    } else if (arg == "--epoch") {
      parsed = tools::ParseCountFlag(next(), &selected_epoch);
    } else if (arg == "--snapshot-out") {
      snapshot_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (!arg.empty() && arg[0] == '-') {
      parsed = false;
    } else {
      shard_paths.push_back(arg);
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (schema_path.empty() || shard_paths.empty()) {
    Usage();
    return 2;
  }

  auto schema = data::ReadSchemaFile(schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }

  // Pull the pipeline configuration from the first input (every other input
  // is validated against it during decode) and size the epoch plan to the
  // largest session any input carries.
  auto first = PeekConfig(shard_paths.front());
  if (!first.ok()) {
    std::fprintf(stderr, "%s: %s\n", shard_paths.front().c_str(),
                 first.status().ToString().c_str());
    return 1;
  }
  uint32_t max_epochs = first.value().epochs;
  for (size_t i = 1; i < shard_paths.size(); ++i) {
    auto peeked = PeekConfig(shard_paths[i]);
    if (peeked.ok()) max_epochs = std::max(max_epochs, peeked.value().epochs);
  }

  auto config = api::PipelineConfig::FromSchema(schema.value(),
                                                first.value().epsilon);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  config.value().mechanism = first.value().mechanism;
  config.value().oracle = first.value().oracle;
  config.value().plan.epochs = max_epochs;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  obs::MetricsRegistry registry;
  api::ServerSessionOptions session_options;
  session_options.ingest = ingest_options;
  // The session owns the ingest pool: IngestInputs falls back to it, and
  // any future Feed-based transport would decode on the same workers.
  session_options.ingest_threads = threads;
  session_options.metrics = &registry;
  auto server = pipeline.value().NewServer(session_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  api::ServerSession& session = server.value();

  // Inputs merge in argument order; WAL directories replay inline between
  // the file batches that surround them. A multi-epoch WAL replays relative
  // to the session's current epoch, so pass it first when mixing it with
  // session snapshots that also advance epochs.
  const auto started = std::chrono::steady_clock::now();
  stream::MultiShardSummary summary;
  size_t batch_start = 0;
  auto ingest_batch = [&](size_t end) -> Status {
    if (batch_start == end) return Status::OK();
    const std::vector<std::string> batch(shard_paths.begin() + batch_start,
                                         shard_paths.begin() + end);
    batch_start = end;
    stream::MultiShardSummary part;
    LDP_RETURN_IF_ERROR(session.IngestInputs(batch, nullptr, &part));
    summary.total_reports += part.total_reports;
    summary.total_rejected += part.total_rejected;
    summary.total_bytes += part.total_bytes;
    return Status::OK();
  };
  Status ingested = Status::OK();
  for (size_t i = 0; i < shard_paths.size() && ingested.ok(); ++i) {
    if (!IsDirectory(shard_paths[i])) continue;
    ingested = ingest_batch(i);
    if (!ingested.ok()) break;
    batch_start = i + 1;
    relay::WalReplaySummary walsum;
    const uint64_t reports_before = SessionReports(session);
    ingested = relay::ReplayWalDir(shard_paths[i], &session, nullptr, nullptr,
                                   &walsum);
    summary.total_reports += SessionReports(session) - reports_before;
    if (walsum.shards_corrupt > 0) {
      std::fprintf(stderr, "%s: %llu corrupt shard(s) skipped\n",
                   shard_paths[i].c_str(),
                   static_cast<unsigned long long>(walsum.shards_corrupt));
    }
    std::printf(
        "replayed WAL %s: %llu shard(s), %llu DATA record(s), %llu bytes\n",
        shard_paths[i].c_str(),
        static_cast<unsigned long long>(walsum.shards_replayed),
        static_cast<unsigned long long>(walsum.frames_replayed),
        static_cast<unsigned long long>(walsum.bytes_replayed));
    summary.total_bytes += walsum.bytes_replayed;
  }
  if (ingested.ok()) ingested = ingest_batch(shard_paths.size());
  if (!ingested.ok()) {
    std::fprintf(stderr, "%s\n", ingested.ToString().c_str());
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  const uint32_t d = pipeline.value().dimension();
  std::printf(
      "ingested %llu reports from %zu input(s) (%llu rejected, %llu bytes) "
      "in %.3fs — %.0f reports/s\n",
      static_cast<unsigned long long>(summary.total_reports),
      shard_paths.size(),
      static_cast<unsigned long long>(summary.total_rejected),
      static_cast<unsigned long long>(summary.total_bytes), elapsed,
      elapsed > 0.0 ? static_cast<double>(summary.total_reports) / elapsed
                    : 0.0);
  std::printf(
      "eps = %g/epoch (mechanism %s, oracle %s; %u of %u attributes per "
      "user); %u epoch(s), eps spent %g\n\n",
      pipeline.value().epsilon(),
      MechanismKindToString(first.value().mechanism),
      FrequencyOracleKindToString(first.value().oracle),
      pipeline.value().k(), d, session.num_epochs(),
      session.epsilon_spent());

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

  if (!metrics_out.empty() && !tools::WriteMetricsFile(metrics_out, registry)) {
    return 1;
  }

  if (selected_epoch >= 0 &&
      static_cast<uint32_t>(selected_epoch) >= session.num_epochs()) {
    std::fprintf(stderr, "epoch %ld not present (session has %u)\n",
                 selected_epoch, session.num_epochs());
    return 1;
  }

  return tools::PrintSessionEstimates(schema.value(), pipeline.value(),
                                      session, confidence, selected_epoch);
}
