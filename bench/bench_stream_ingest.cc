// Streaming-ingestion throughput: how fast the server half decodes framed
// shard streams and folds reports into the aggregator. This is the paper's
// deployment story at scale — millions of users send one wire report each;
// the aggregator must keep up at line rate.
//
// Sweeps schemas × shard counts (1 shard = the single-core hot loop; more
// shards exercise the parallel ordered reduction): a census-like mixed
// schema across oracle kinds (GRR / SUE / OUE / OLH / HE / THE — the payload
// encodings differ by orders of magnitude in bytes/report) and an
// all-numeric schema (the paper's Algorithm 4, kind "all_numeric" in the
// JSON), all sent as the one mixed report stream. Measures the full server path
// (frame scan → zero-copy wire decode → validation → aggregator
// accumulation → ordered shard merge) over pre-encoded in-memory shards, so
// client-side perturbation cost is excluded.
//
//   LDP_BENCH_USERS   total reports across shards (default 1000000)
//   LDP_BENCH_FAST=1  shrink for smoke runs (100000)
//
// Emits one BENCH_stream_ingest.json next to the binary for trend tracking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace {

using namespace ldp;  // NOLINT: benchmark binary

MixedTupleCollector MakeCollector(std::vector<MixedAttribute> schema,
                                  FrequencyOracleKind oracle) {
  auto collector = MixedTupleCollector::Create(std::move(schema), 4.0,
                                               MechanismKind::kHybrid, oracle);
  if (!collector.ok()) {
    std::fprintf(stderr, "%s\n", collector.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(collector).value();
}

// A census-like 8-attribute mixed schema; `oracle` picks the categorical
// frequency oracle under sweep.
MixedTupleCollector MakeCollector(FrequencyOracleKind oracle) {
  return MakeCollector(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(4),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(32)},
      oracle);
}

std::vector<std::string> EncodeShards(const MixedTupleCollector& collector,
                                      uint64_t reports, size_t num_shards) {
  MixedTuple tuple(collector.dimension());
  for (uint32_t j = 0; j < collector.dimension(); ++j) {
    if (collector.schema()[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(0.25);
    } else {
      tuple[j] =
          AttributeValue::Categorical(j % collector.schema()[j].domain_size);
    }
  }
  std::vector<std::string> shards;
  const std::vector<IndexRange> ranges = SplitRange(reports, num_shards);
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::ostringstream out;
    stream::ReportStreamWriter writer(
        &out, stream::MakeMixedStreamHeader(collector));
    Rng rng(1000 + s);
    for (uint64_t i = ranges[s].begin; i < ranges[s].end; ++i) {
      if (!writer.WriteReport(collector, tuple, &rng).ok()) {
        std::fprintf(stderr, "encode failed\n");
        std::exit(1);
      }
    }
    shards.push_back(out.str());
  }
  return shards;
}

// Decodes every shard on its own ShardIngester across `pool` (inline when
// null), then merges the shard aggregates in shard order: the work
// ServerSession::IngestInputs does per stream file, minus the file I/O.
Result<MixedAggregator> IngestShards(
    const MixedTupleCollector& collector,
    const std::vector<std::string>& shards, ThreadPool* pool,
    const stream::ShardIngester::Options& options =
        stream::ShardIngester::Options()) {
  std::vector<std::optional<MixedAggregator>> partials(shards.size());
  std::vector<Status> statuses(shards.size(), Status::OK());
  ParallelFor(pool, shards.size(),
              [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t s = begin; s < end; ++s) {
                  stream::ShardIngester ingester(&collector, options);
                  statuses[s] = ingester.Feed(shards[s]);
                  if (statuses[s].ok()) statuses[s] = ingester.Finish();
                  if (statuses[s].ok()) {
                    partials[s] = ingester.ReleaseAggregator();
                  }
                }
              });
  MixedAggregator total(&collector);
  for (size_t s = 0; s < shards.size(); ++s) {
    LDP_RETURN_IF_ERROR(statuses[s]);
    LDP_RETURN_IF_ERROR(total.Merge(*partials[s]));
  }
  return total;
}

struct SweepResult {
  const char* kind = "mixed";
  const char* oracle = "";
  size_t shards = 0;
  unsigned threads = 0;
  double bytes_per_report = 0.0;
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double mib_per_sec = 0.0;
  /// Telemetry sweep only: metrics-on slowdown vs the metrics-off row, in
  /// percent (0 everywhere else).
  double overhead_pct = 0.0;
};

}  // namespace

int main() {
  bench::BenchConfig config = bench::ResolveConfig();
  // This harness defaults to paper scale: 1M reports even without
  // LDP_BENCH_USERS (the figure harnesses default to 50k).
  uint64_t reports = 1000000;
  if (std::getenv("LDP_BENCH_USERS") != nullptr) reports = config.users;
  if (const char* fast = std::getenv("LDP_BENCH_FAST");
      fast != nullptr && std::string(fast) == "1" &&
      std::getenv("LDP_BENCH_USERS") == nullptr) {
    reports = 100000;
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  std::vector<size_t> shard_counts = {1, 4};
  if (hardware > 4) shard_counts.push_back(hardware);

  const struct {
    FrequencyOracleKind kind;
    const char* name;
  } kOracles[] = {
      {FrequencyOracleKind::kOue, "OUE"}, {FrequencyOracleKind::kGrr, "GRR"},
      {FrequencyOracleKind::kSue, "SUE"}, {FrequencyOracleKind::kOlh, "OLH"},
      {FrequencyOracleKind::kHe, "HE"},   {FrequencyOracleKind::kThe, "THE"},
  };

  std::printf("=== Streaming shard ingestion: schema x shard sweep ===\n");
  std::printf("(reports: %llu, schemas: 8 attributes, eps = 4)\n\n",
              static_cast<unsigned long long>(reports));
  std::printf("%-8s %8s %8s %10s %10s %14s %10s\n", "oracle", "shards",
              "threads", "B/report", "seconds", "reports/s", "MiB/s");

  // The mixed schema under each oracle, then the 8-attribute all-numeric
  // schema at the same ε (no oracle: every entry is a numeric one).
  struct SweepSchema {
    const char* kind;
    const char* oracle;
    const char* label;
    MixedTupleCollector collector;
  };
  std::vector<SweepSchema> schemas;
  for (const auto& oracle : kOracles) {
    schemas.push_back(
        {"mixed", oracle.name, oracle.name, MakeCollector(oracle.kind)});
  }
  schemas.push_back(
      {"all_numeric", "-", "NUMERIC",
       MakeCollector(std::vector<MixedAttribute>(8, MixedAttribute::Numeric()),
                     FrequencyOracleKind::kOue)});

  std::vector<SweepResult> results;
  for (const SweepSchema& schema : schemas) {
    const MixedTupleCollector& collector = schema.collector;
    for (const size_t num_shards : shard_counts) {
      const std::vector<std::string> shards =
          EncodeShards(collector, reports, num_shards);
      uint64_t total_bytes = 0;
      for (const std::string& shard : shards) total_bytes += shard.size();

      const unsigned threads = std::min(static_cast<unsigned>(num_shards),
                                        std::max(hardware, 1u));
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      const auto started = std::chrono::steady_clock::now();
      auto total = IngestShards(collector, shards, pool.get());
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      if (!total.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     total.status().ToString().c_str());
        return 1;
      }
      if (total.value().num_reports() != reports) {
        std::fprintf(stderr,
                     "ingest dropped reports: expected %llu, got %llu\n",
                     static_cast<unsigned long long>(reports),
                     static_cast<unsigned long long>(
                         total.value().num_reports()));
        return 1;
      }

      SweepResult result;
      result.kind = schema.kind;
      result.oracle = schema.oracle;
      result.shards = num_shards;
      result.threads = threads;
      result.bytes_per_report =
          static_cast<double>(total_bytes) / static_cast<double>(reports);
      result.seconds = seconds;
      result.reports_per_sec = static_cast<double>(reports) / seconds;
      result.mib_per_sec =
          static_cast<double>(total_bytes) / seconds / (1024.0 * 1024.0);
      results.push_back(result);
      std::printf("%-8s %8zu %8u %10.1f %10.3f %14.0f %10.1f\n", schema.label,
                  result.shards, result.threads, result.bytes_per_report,
                  result.seconds, result.reports_per_sec, result.mib_per_sec);
    }
  }

  // Concurrent ServerSession sweep: the same mixed shards pushed through
  // api::ServerSession::Feed with a session-owned ingest pool, chunked and
  // interleaved across shards the way a network frontend would deliver
  // them. Tracks reports/sec of the full session path (enqueue -> strand
  // decode -> drain -> ordered merge) as session_threads grows.
  {
    const MixedTupleCollector collector =
        MakeCollector(FrequencyOracleKind::kOue);
    auto config = api::PipelineConfig{};
    config.attributes = collector.schema();
    config.epsilon = 4.0;
    auto pipeline = api::Pipeline::Create(std::move(config));
    if (!pipeline.ok()) {
      std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
      return 1;
    }
    constexpr size_t kSessionShards = 8;
    constexpr size_t kChunkBytes = 256 * 1024;
    const std::vector<std::string> shards =
        EncodeShards(collector, reports, kSessionShards);
    uint64_t total_bytes = 0;
    for (const std::string& shard : shards) total_bytes += shard.size();

    std::vector<unsigned> thread_sweep = {1, 2, 4};
    if (hardware >= 8) thread_sweep.push_back(8);
    for (const unsigned session_threads : thread_sweep) {
      api::ServerSessionOptions options;
      options.ingest_threads = session_threads;
      auto server = pipeline.value().NewServer(options);
      if (!server.ok()) {
        std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
        return 1;
      }
      api::ServerSession& session = server.value();

      const auto started = std::chrono::steady_clock::now();
      std::vector<size_t> ids;
      std::vector<size_t> offsets(shards.size(), 0);
      ids.reserve(shards.size());
      for (size_t s = 0; s < shards.size(); ++s) {
        ids.push_back(session.OpenShard());
      }
      for (bool fed = true; fed;) {
        fed = false;
        for (size_t s = 0; s < shards.size(); ++s) {
          const size_t left = shards[s].size() - offsets[s];
          if (left == 0) continue;
          const size_t take = std::min(kChunkBytes, left);
          if (!session.Feed(ids[s], shards[s].data() + offsets[s], take)
                   .ok()) {
            std::fprintf(stderr, "session feed failed\n");
            return 1;
          }
          offsets[s] += take;
          fed = true;
        }
      }
      for (const size_t id : ids) {
        if (!session.CloseShard(id).ok()) {
          std::fprintf(stderr, "session close failed\n");
          return 1;
        }
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      auto ingested = session.num_reports(0);
      if (!ingested.ok() || ingested.value() != reports) {
        std::fprintf(stderr, "session ingest dropped reports\n");
        return 1;
      }

      SweepResult result;
      result.kind = "session";
      result.oracle = "OUE";
      result.shards = kSessionShards;
      result.threads = session_threads;
      result.bytes_per_report =
          static_cast<double>(total_bytes) / static_cast<double>(reports);
      result.seconds = seconds;
      result.reports_per_sec = static_cast<double>(reports) / seconds;
      result.mib_per_sec =
          static_cast<double>(total_bytes) / seconds / (1024.0 * 1024.0);
      results.push_back(result);
      std::printf("%-8s %8zu %8u %10.1f %10.3f %14.0f %10.1f\n", "SESSION",
                  result.shards, result.threads, result.bytes_per_report,
                  result.seconds, result.reports_per_sec, result.mib_per_sec);
    }
  }

  // Telemetry overhead: the single-shard OUE hot loop with IngestMetrics
  // off vs on over the same pre-encoded buffer, min of repeats. The
  // per-thread-sharded counters are flushed as deltas once per Feed chunk,
  // so the on-row should sit within the ISSUE's <2% budget of the off-row.
  {
    const MixedTupleCollector collector =
        MakeCollector(FrequencyOracleKind::kOue);
    const std::vector<std::string> shards = EncodeShards(collector, reports, 1);
    uint64_t total_bytes = 0;
    for (const std::string& shard : shards) total_bytes += shard.size();

    constexpr int kRepeats = 3;
    auto best_of = [&](const stream::ShardIngester::Options& options,
                       double* out_seconds) -> bool {
      double best = 0.0;
      for (int r = 0; r < kRepeats; ++r) {
        const auto started = std::chrono::steady_clock::now();
        auto total = IngestShards(collector, shards, /*pool=*/nullptr, options);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();
        if (!total.ok() || total.value().num_reports() != reports) {
          std::fprintf(stderr, "overhead sweep ingest failed\n");
          return false;
        }
        if (r == 0 || seconds < best) best = seconds;
      }
      *out_seconds = best;
      return true;
    };

    double off_seconds = 0.0, on_seconds = 0.0;
    if (!best_of(stream::ShardIngester::Options(), &off_seconds)) return 1;
    obs::MetricsRegistry registry;
    stream::ShardIngester::Options on_options;
    on_options.metrics = obs::IngestMetrics::ForRegistry(&registry);
    if (!best_of(on_options, &on_seconds)) return 1;
    if (on_options.metrics.accepted->Value() !=
        reports * static_cast<uint64_t>(kRepeats)) {
      std::fprintf(stderr, "metrics lost reports: counter %llu\n",
                   static_cast<unsigned long long>(
                       on_options.metrics.accepted->Value()));
      return 1;
    }
    const double overhead_pct =
        off_seconds > 0.0 ? (on_seconds - off_seconds) / off_seconds * 100.0
                          : 0.0;

    for (const bool metrics_on : {false, true}) {
      SweepResult result;
      result.kind = metrics_on ? "metrics_on" : "metrics_off";
      result.oracle = "OUE";
      result.shards = 1;
      result.threads = 1;
      result.bytes_per_report =
          static_cast<double>(total_bytes) / static_cast<double>(reports);
      result.seconds = metrics_on ? on_seconds : off_seconds;
      result.reports_per_sec = static_cast<double>(reports) / result.seconds;
      result.mib_per_sec = static_cast<double>(total_bytes) / result.seconds /
                           (1024.0 * 1024.0);
      if (metrics_on) result.overhead_pct = overhead_pct;
      results.push_back(result);
      std::printf("%-8s %8zu %8u %10.1f %10.3f %14.0f %10.1f\n",
                  metrics_on ? "OBS-ON" : "OBS-OFF", result.shards,
                  result.threads, result.bytes_per_report, result.seconds,
                  result.reports_per_sec, result.mib_per_sec);
    }
    std::printf("telemetry overhead: %+.2f%% (min of %d runs)\n",
                overhead_pct, kRepeats);
  }

  // Machine-readable trend line.
  FILE* json = std::fopen("BENCH_stream_ingest.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"benchmark\": \"stream_ingest\",\n"
                 "  \"build\": %s,\n"
                 "  \"reports\": %llu,\n  \"runs\": [\n",
                 BuildInfoJson().c_str(),
                 static_cast<unsigned long long>(reports));
    for (size_t i = 0; i < results.size(); ++i) {
      std::fprintf(
          json,
          "    {\"kind\": \"%s\", \"oracle\": \"%s\", \"shards\": %zu, "
          "\"threads\": %u, \"bytes_per_report\": %.1f, \"seconds\": %.6f, "
          "\"reports_per_sec\": %.0f, \"mib_per_sec\": %.1f, "
          "\"overhead_pct\": %.2f}%s\n",
          results[i].kind, results[i].oracle, results[i].shards,
          results[i].threads, results[i].bytes_per_report, results[i].seconds,
          results[i].reports_per_sec, results[i].mib_per_sec,
          results[i].overhead_pct, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_stream_ingest.json\n");
  }
  return 0;
}
