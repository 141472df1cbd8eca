// ldp_report: the client half of the deployment split. Streams a CSV of
// user records row by row, perturbs each row on the "device" under ε-LDP
// through an api::ClientSession, and ships the privatized reports as framed
// report streams (src/stream/report_stream.h) — either as one shard file
// per slice of the population (ready for ldp_aggregate), or, with
// --connect, streamed live to an ldp_serve collector over TCP or a
// Unix-domain socket. Nothing but the perturbed reports leaves the process,
// and memory stays O(schema) regardless of row count: the table is never
// materialized (a cheap first pass counts rows to fix the shard
// boundaries, then the privatizing pass streams).
//
//   ldp_report --schema FILE --data FILE --epsilon E
//              (--out PREFIX | --connect tcp:HOST:PORT|unix:PATH)
//              [--shards N] [--shard-index I] [--mechanism hm|pm]
//              [--oracle oue|grr|sue|olh|he|the]
//              [--seed S] [--reporter-id ID --campaign-key KEY]
//
// Every schema travels as Section IV-C mixed reports; an all-numeric schema
// is the paper's Algorithm 4 in that same format.
//
// File mode produces PREFIX.shard-000.ldps ... PREFIX.shard-<N-1>.ldps.
// Connect mode opens one collector connection per shard and HELLOs the
// shard's index as its ordinal. Either way, shard boundaries follow
// util/threadpool.h SplitRange and user `row` draws from
// api::UserRng(seed, row), so aggregating the shards (in any order, as
// the sums are exact) reproduces an in-process ldp_collect run with the
// same seed bit for bit — including across the network, and for any shard
// count. --shard-index I restricts
// this invocation to shard I (same boundaries, same randomness), which is
// how a fleet of concurrent reporter processes splits one campaign.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "data/csv.h"
#include "data/schema_text.h"
#include "tool_flags.h"
#include "net/client.h"
#include "net/socket.h"
#include "stream/report_stream.h"
#include "util/threadpool.h"

namespace {

using namespace ldp;  // NOLINT: CLI binary

void Usage() {
  std::fprintf(
      stderr,
      "usage: ldp_report --schema FILE --data FILE --epsilon E\n"
      "                  (--out PREFIX | --connect ENDPOINT)\n"
      "                  [--shards N] [--shard-index I] [--mechanism hm|pm]\n"
      "                  [--oracle oue|grr|sue|olh|he|the]\n"
      "                  [--seed S] [--reporter-id ID --campaign-key KEY]\n"
      "                  [--metrics-out FILE] [--version]\n"
      "ENDPOINT is tcp:HOST:PORT or unix:PATH (an ldp_serve collector).\n"
      "--reporter-id/--campaign-key authenticate --connect HELLOs (protocol\n"
      "v3) so the collector charges this reporter's budget exactly once per\n"
      "epoch; both must be given together and match the collector's key.\n"
      "--metrics-out dumps reporter-side telemetry as JSON at exit.\n");
}

std::string ShardPath(const std::string& prefix, size_t shard) {
  // Five digits keep lexicographic shell-glob order equal to numeric shard
  // order for any realistic shard count.
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".shard-%05zu.ldps", shard);
  return prefix + suffix;
}

// Where one shard's bytes go: a file (writer mode) or a collector
// connection (connect mode). Both consume the identical byte stream.
struct ShardSink {
  virtual ~ShardSink() = default;
  virtual Status Write(const std::string& bytes) = 0;
  /// Finalizes the shard; returns bytes shipped.
  virtual Result<uint64_t> Finish() = 0;
};

struct FileShardSink : ShardSink {
  explicit FileShardSink(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {}

  Status Write(const std::string& bytes) override {
    if (!out_.is_open()) {
      return Status::IoError("cannot open '" + path_ + "' for writing");
    }
    out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes_ += bytes.size();
    return out_.good() ? Status::OK()
                       : Status::IoError("write error on '" + path_ + "'");
  }

  Result<uint64_t> Finish() override {
    out_.flush();
    if (!out_.good()) {
      return Status::IoError("write error on '" + path_ + "'");
    }
    return bytes_;
  }

  std::string path_;
  std::ofstream out_;
  uint64_t bytes_ = 0;
};

struct NetShardSink : ShardSink {
  // CollectorClient::Connect negotiates the shard on channel 0.
  static constexpr uint32_t kChannel = 0;

  NetShardSink(net::CollectorClient client, uint64_t reports)
      : client_(std::move(client)),
        skip_(client_.resume_offset(kChannel)),
        reports_(reports) {}

  Status Write(const std::string& bytes) override {
    bytes_ += bytes.size();
    // Resume handshake (HELLO_OK.resume_offset): the collector's WAL
    // already holds this many post-header bytes from a pre-crash run of
    // the same deterministic stream — skip them instead of re-sending.
    if (skip_ > 0) {
      if (bytes.size() <= skip_) {
        skip_ -= bytes.size();
        return Status::OK();
      }
      const Status sent = client_.Send(kChannel, bytes.data() + skip_,
                                       bytes.size() - skip_);
      skip_ = 0;
      return sent;
    }
    return client_.Send(kChannel, bytes.data(), bytes.size());
  }

  Result<uint64_t> Finish() override {
    Result<net::ShardCloseSummary> summary = client_.CloseShard(kChannel);
    if (!summary.ok()) return summary.status();
    if (!summary.value().status.ok()) {
      return Status(summary.value().status.code(),
                    "collector discarded the shard: " +
                        summary.value().status.message());
    }
    if (summary.value().stats.accepted != reports_) {
      return Status::Internal(
          "collector accepted " +
          std::to_string(summary.value().stats.accepted) + " of " +
          std::to_string(reports_) + " reports");
    }
    return bytes_;
  }

  net::CollectorClient client_;
  uint64_t skip_;  // durable bytes left to swallow before real sends
  uint64_t reports_;
  uint64_t bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (tools::HandleVersionFlag(argc, argv, "ldp_report")) return 0;
  std::string schema_path, data_path, prefix, connect_spec, metrics_out;
  double epsilon = 0.0;
  uint64_t seed = 1;
  uint64_t shards = 1;
  long shard_index = -1;
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  tools::IdentityFlags identity;
  std::string identity_error;
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
    } else if (arg == "--data") {
      data_path = next();
    } else if (arg == "--epsilon") {
      parsed = tools::ParseRealFlag(next(), &epsilon);
    } else if (arg == "--out") {
      prefix = next();
    } else if (arg == "--connect") {
      connect_spec = next();
    } else if (arg == "--shards") {
      parsed = tools::ParseCountFlag(next(), &shards);
    } else if (arg == "--shard-index") {
      parsed = tools::ParseCountFlag(next(), &shard_index);
    } else if (arg == "--seed") {
      parsed = tools::ParseCountFlag(next(), &seed);
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (tools::ParseIdentityFlag(
                   arg, next, tools::kFlagReporterId | tools::kFlagCampaignKey,
                   &identity, &identity_error)) {
      if (!identity_error.empty()) {
        std::fprintf(stderr, "%s\n", identity_error.c_str());
        Usage();
        return 2;
      }
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
  const bool connect_mode = !connect_spec.empty();
  if (schema_path.empty() || data_path.empty() || epsilon <= 0.0 ||
      shards == 0 || prefix.empty() != connect_mode ||
      (shard_index >= 0 && static_cast<uint64_t>(shard_index) >= shards)) {
    Usage();
    return 2;
  }
  if (!tools::CheckReporterIdentity(identity, &identity_error)) {
    std::fprintf(stderr, "%s\n", identity_error.c_str());
    Usage();
    return 2;
  }
  if (!identity.campaign_key.empty() && !connect_mode) {
    std::fprintf(stderr,
                 "--campaign-key authenticates --connect HELLOs; file mode "
                 "(--out) ships no HELLO to sign\n");
    Usage();
    return 2;
  }

  net::Endpoint endpoint;
  if (connect_mode) {
    auto parsed = net::Endpoint::Parse(connect_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    endpoint = parsed.value();
  }

  auto schema = data::ReadSchemaFile(schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto row_count = data::CountCsvDataRows(data_path);
  if (!row_count.ok()) {
    std::fprintf(stderr, "%s\n", row_count.status().ToString().c_str());
    return 1;
  }
  const uint64_t n = row_count.value();
  if (n == 0) {
    std::fprintf(stderr, "dataset is empty\n");
    return 1;
  }

  auto config = api::PipelineConfig::FromSchema(schema.value(), epsilon);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  config.value().mechanism = mechanism;
  config.value().oracle = oracle;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto client = pipeline.value().NewClient();
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  // Second pass: stream rows, normalizing each numeric cell from its schema
  // [lo, hi] to the mechanisms' canonical [-1, 1] with the same arithmetic
  // as data::NormalizeNumeric — bit-identical to the materializing pipeline,
  // which the reproduction contract depends on. Rows outside a selected
  // shard are still read (and their RNG rows skipped by index), so the
  // shrink/grow integrity checks keep covering the whole file.
  auto reader = data::CsvRowReader::Open(schema.value(), data_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const uint32_t d = schema.value().num_columns();
  const std::vector<IndexRange> ranges = SplitRange(n, shards);
  // SplitRange never produces empty shards, so fewer rows than --shards
  // yields fewer ranges; a --shard-index beyond them has no users to ship.
  if (shard_index >= 0 && static_cast<size_t>(shard_index) >= ranges.size()) {
    std::fprintf(stderr,
                 "shard %ld is empty: %llu row(s) split into %zu shard(s)\n",
                 shard_index, static_cast<unsigned long long>(n),
                 ranges.size());
    return 1;
  }
  std::vector<double> numeric_row;
  std::vector<uint32_t> category_row;
  MixedTuple tuple(d);
  uint64_t total_bytes = 0;
  size_t shards_shipped = 0;
  const std::string header_bytes = client.value().EncodeHeader();
  std::string buffer;
  for (size_t s = 0; s < ranges.size(); ++s) {
    const bool selected =
        shard_index < 0 || s == static_cast<size_t>(shard_index);
    std::unique_ptr<ShardSink> sink;
    if (selected) {
      if (connect_mode) {
        // Authenticated campaigns sign every shard's HELLO with the same
        // reporter id — the collector's per-(reporter, epoch) charge is
        // idempotent, so N shards spend this user's ε exactly once.
        net::CollectorClientOptions client_options;
        client_options.reporter_id = identity.reporter_id;
        client_options.campaign_key = identity.campaign_key;
        auto connection = net::CollectorClient::Connect(
            endpoint, client.value().header(), /*ordinal=*/s, client_options);
        if (!connection.ok()) {
          std::fprintf(stderr, "shard %zu: %s\n", s,
                       connection.status().ToString().c_str());
          return 1;
        }
        sink = std::make_unique<NetShardSink>(std::move(connection).value(),
                                              ranges[s].end - ranges[s].begin);
      } else {
        sink = std::make_unique<FileShardSink>(ShardPath(prefix, s));
        // The connection HELLOs the header; files carry it inline.
        const Status wrote = sink->Write(header_bytes);
        if (!wrote.ok()) {
          std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
          return 1;
        }
      }
    }
    for (uint64_t row = ranges[s].begin; row < ranges[s].end; ++row) {
      auto more = reader.value().NextRow(&numeric_row, &category_row);
      if (!more.ok()) {
        std::fprintf(stderr, "%s\n", more.status().ToString().c_str());
        return 1;
      }
      if (!more.value()) {
        std::fprintf(stderr, "%s shrank between passes\n", data_path.c_str());
        return 1;
      }
      if (!selected) continue;
      api::RowToTuple(schema.value(), numeric_row, category_row, &tuple);
      Rng rng = api::UserRng(seed, row);
      buffer.clear();
      const Status framed = client.value().AppendFrame(tuple, &rng, &buffer);
      const Status wrote = framed.ok() ? sink->Write(buffer) : framed;
      if (!wrote.ok()) {
        std::fprintf(stderr, "shard %zu: %s\n", s, wrote.ToString().c_str());
        return 1;
      }
    }
    if (selected) {
      auto finished = sink->Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "shard %zu: %s\n", s,
                     finished.status().ToString().c_str());
        return 1;
      }
      total_bytes += finished.value();
      ++shards_shipped;
    }
  }
  // The shard boundaries were fixed by the counting pass; rows appearing
  // after it (a still-running exporter?) would otherwise be dropped
  // silently. Symmetric with the shrink check above.
  auto trailing = reader.value().NextRow(&numeric_row, &category_row);
  if (!trailing.ok()) {
    std::fprintf(stderr, "%s\n", trailing.status().ToString().c_str());
    return 1;
  }
  if (trailing.value()) {
    std::fprintf(stderr, "%s grew between passes\n", data_path.c_str());
    return 1;
  }

  const uint64_t reported =
      shard_index < 0
          ? n
          : ranges[static_cast<size_t>(shard_index)].end -
                ranges[static_cast<size_t>(shard_index)].begin;
  std::printf(
      "privatized %llu users under eps = %g (mechanism %s, oracle %s; %u of "
      "%u attributes sampled per user)\n",
      static_cast<unsigned long long>(reported), epsilon,
      MechanismKindToString(mechanism), FrequencyOracleKindToString(oracle),
      pipeline.value().k(), d);
  if (connect_mode) {
    std::printf("streamed %zu shard(s) to %s (%llu bytes)\n", shards_shipped,
                endpoint.ToString().c_str(),
                static_cast<unsigned long long>(total_bytes));
  } else {
    std::printf("wrote %zu shard stream(s) to %s.shard-*.ldps (%llu bytes)\n",
                shards_shipped, prefix.c_str(),
                static_cast<unsigned long long>(total_bytes));
  }

  if (!metrics_out.empty()) {
    // Reporter-side telemetry: populated from the run totals (the client
    // has no server session to instrument), same registry JSON shape as
    // the server tools so downstream tooling reads one format.
    obs::MetricsRegistry registry;
    registry.GetCounter("ldp_report_reports_total")->Add(reported);
    registry.GetCounter("ldp_report_bytes_total")->Add(total_bytes);
    registry.GetCounter("ldp_report_shards_shipped_total")
        ->Add(shards_shipped);
    if (!tools::WriteMetricsFile(metrics_out, registry)) return 1;
  }
  return 0;
}
