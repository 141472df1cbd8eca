// ldp_collect: runs the paper's collection pipeline over a CSV of user
// records and prints ε-LDP estimates (with confidence intervals) for every
// attribute. Each CSV row plays one user; nothing but the simulated
// perturbed reports influences the estimates.
//
//   ldp_collect --schema FILE --data FILE --epsilon E
//               [--mechanism hm|pm] [--oracle oue|grr|sue|olh|he|the]
//               [--seed S] [--confidence C]
//
// Implementation: an api::Pipeline ClientSession/ServerSession pair in one
// process. Rows stream through data::CsvRowReader one at a time — each is
// normalised, perturbed, wire-encoded and fed to the server session's one
// shard, then dropped — so memory stays O(schema) no matter how many rows
// the CSV carries. The sums are exact, so the printed estimates are
// bit-identical to the materializing Pipeline::Collect simulation with the
// same seed at any thread count, and to an ldp_report | ldp_aggregate
// split into any number of shards. For parallel collection at scale, split
// the work with `ldp_report --shards` and aggregate with
// `ldp_aggregate --threads`.
//
// The schema file format is documented in src/data/schema_text.h;
// ldp_generate produces compatible pairs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "aggregate/confidence.h"
#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/sampled_numeric.h"
#include "core/variance.h"
#include "data/csv.h"
#include "data/schema_text.h"
#include "tool_flags.h"
#include "stream/report_stream.h"

namespace {

using namespace ldp;  // NOLINT: CLI binary

void Usage() {
  std::fprintf(
      stderr,
      "usage: ldp_collect --schema FILE --data FILE --epsilon E\n"
      "                   [--mechanism hm|pm] [--oracle "
      "oue|grr|sue|olh|he|the]\n"
      "                   [--seed S] [--confidence C]\n"
      "                   [--reporter-id ID] [--metrics-out FILE]\n"
      "                   [--version]\n"
      "The estimates equal ldp_report | ldp_aggregate over any number of\n"
      "shards with the same seed.\n"
      "--reporter-id charges the run's privacy budget to that reporter's\n"
      "ledger (once per epoch) instead of only the anonymous campaign plan.\n"
      "--metrics-out dumps the run's telemetry registry as JSON at exit.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::HandleVersionFlag(argc, argv, "ldp_collect")) return 0;
  std::string schema_path, data_path, metrics_out;
  double epsilon = 0.0;
  double confidence = 0.95;
  uint64_t seed = 1;
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
    } else if (arg == "--confidence") {
      parsed = tools::ParseRealFlag(next(), &confidence);
    } else if (arg == "--seed") {
      parsed = tools::ParseCountFlag(next(), &seed);
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (tools::ParseIdentityFlag(arg, next, tools::kFlagReporterId,
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
  if (schema_path.empty() || data_path.empty() || epsilon <= 0.0) {
    Usage();
    return 2;
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
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  obs::MetricsRegistry registry;
  api::ServerSessionOptions session_options;
  session_options.metrics = &registry;
  auto client = pipeline.value().NewClient();
  auto server = pipeline.value().NewServer(session_options);
  if (!client.ok() || !server.ok()) {
    std::fprintf(stderr, "%s\n",
                 (client.ok() ? server.status() : client.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  api::ServerSession& session = server.value();

  auto reader = data::CsvRowReader::Open(schema.value(), data_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  auto opened = session.OpenShard(identity.reporter_id);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  const size_t shard = opened.value();
  const uint32_t d = schema.value().num_columns();
  std::vector<double> numeric_row;
  std::vector<uint32_t> category_row;
  MixedTuple tuple(d);
  std::string buffer = client.value().EncodeHeader();
  uint64_t n = 0;
  for (;; ++n) {
    auto more = reader.value().NextRow(&numeric_row, &category_row);
    if (!more.ok()) {
      std::fprintf(stderr, "%s\n", more.status().ToString().c_str());
      return 1;
    }
    if (!more.value()) break;
    api::RowToTuple(schema.value(), numeric_row, category_row, &tuple);
    Rng rng = api::UserRng(seed, n);
    Status framed = client.value().AppendFrame(tuple, &rng, &buffer);
    if (framed.ok() && buffer.size() >= 64 * 1024) {
      framed = session.Feed(shard, buffer);
      buffer.clear();
    }
    if (!framed.ok()) {
      std::fprintf(stderr, "%s\n", framed.ToString().c_str());
      return 1;
    }
  }
  if (n == 0) {
    std::fprintf(stderr, "dataset is empty\n");
    return 1;
  }
  Status fed = session.Feed(shard, buffer);
  if (fed.ok()) fed = session.CloseShard(shard);
  if (!fed.ok()) {
    std::fprintf(stderr, "%s\n", fed.ToString().c_str());
    return 1;
  }

  const uint32_t k = pipeline.value().k();
  std::printf("collected %llu users under eps = %g (mechanism %s, oracle "
              "%s; %u of %u attributes sampled per user)\n\n",
              static_cast<unsigned long long>(n), epsilon,
              MechanismKindToString(mechanism),
              FrequencyOracleKindToString(oracle), k, d);

  // Confidence machinery: the sampled mechanism matching the collection run.
  auto sampled = SampledNumericMechanism::Create(mechanism, epsilon, d);
  std::printf("numeric attribute means (+/- %.0f%% CI, native units):\n",
              confidence * 100.0);
  for (uint32_t col = 0; col < d; ++col) {
    const data::ColumnSpec& spec = schema.value().column(col);
    if (spec.type != data::ColumnType::kNumeric) continue;
    auto mean = session.EstimateMean(col, 0);
    if (!mean.ok()) {
      std::fprintf(stderr, "%s\n", mean.status().ToString().c_str());
      return 1;
    }
    const double mid = (spec.hi + spec.lo) / 2.0;
    const double half = (spec.hi - spec.lo) / 2.0;
    auto interval = aggregate::SampledMeanConfidenceInterval(
        mean.value(), sampled.value(), n, confidence);
    if (!interval.ok()) {
      std::fprintf(stderr, "%s\n", interval.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-20s %12.4f  [%0.4f, %0.4f]\n", spec.name.c_str(),
                mid + half * interval.value().estimate,
                mid + half * interval.value().lo,
                mid + half * interval.value().hi);
  }

  std::printf("\ncategorical attribute frequencies:\n");
  for (uint32_t col = 0; col < d; ++col) {
    const data::ColumnSpec& spec = schema.value().column(col);
    if (spec.type != data::ColumnType::kCategorical) continue;
    auto freqs = session.EstimateFrequencies(col, 0);
    if (!freqs.ok()) {
      std::fprintf(stderr, "%s\n", freqs.status().ToString().c_str());
      return 1;
    }
    std::printf("  %s:", spec.name.c_str());
    for (const double f : freqs.value()) {
      std::printf(" %.4f", f);
    }
    std::printf("\n");
  }

  if (!metrics_out.empty() && !tools::WriteMetricsFile(metrics_out, registry)) {
    return 1;
  }
  return 0;
}
