#include "stream/parallel_ingest.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "stream/snapshot.h"

namespace ldp::stream {

Result<std::vector<std::optional<MixedAggregator>>> LoadShardInputs(
    const std::vector<ShardInput>& inputs, ThreadPool* pool,
    MultiShardSummary* summary) {
  if (inputs.empty()) {
    return Status::InvalidArgument("no shards to ingest");
  }
  const size_t num_shards = inputs.size();
  std::vector<std::optional<MixedAggregator>> partials(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  std::vector<ShardIngester::Stats> stats(num_shards);
  ParallelFor(pool, num_shards,
              [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t s = begin; s < end; ++s) {
                  Result<std::optional<MixedAggregator>> loaded =
                      inputs[s].load(&stats[s]);
                  if (loaded.ok()) {
                    partials[s] = std::move(loaded).value();
                  } else {
                    statuses[s] = loaded.status();
                  }
                }
              });

  MultiShardSummary local_summary;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardIngestOutcome outcome;
    outcome.source = inputs[s].name;
    outcome.status = statuses[s];
    outcome.stats = stats[s];
    local_summary.total_reports += outcome.stats.accepted;
    local_summary.total_rejected += outcome.stats.rejected;
    local_summary.total_bytes += outcome.stats.bytes;
    local_summary.shards.push_back(std::move(outcome));
  }
  if (summary != nullptr) *summary = std::move(local_summary);

  for (size_t s = 0; s < num_shards; ++s) {
    if (!statuses[s].ok()) {
      return Status(statuses[s].code(), "input '" + inputs[s].name +
                                            "': " + statuses[s].message());
    }
  }
  return partials;
}

Result<MixedAggregator> IngestShardInputs(
    const MixedTupleCollector* collector,
    const std::vector<ShardInput>& inputs, ThreadPool* pool,
    MultiShardSummary* summary) {
  std::vector<std::optional<MixedAggregator>> partials;
  LDP_ASSIGN_OR_RETURN(partials, LoadShardInputs(inputs, pool, summary));
  MixedAggregator total(collector);
  for (const std::optional<MixedAggregator>& partial : partials) {
    if (partial.has_value()) LDP_RETURN_IF_ERROR(total.Merge(*partial));
  }
  return total;
}

ShardInput StreamFileInput(const MixedTupleCollector* collector,
                           std::string path, ShardIngester::Options options) {
  ShardInput input;
  input.name = path;
  input.load = [collector, path = std::move(path),
                options](ShardIngester::Stats* stats)
      -> Result<std::optional<MixedAggregator>> {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      return Status::IoError("cannot open shard file");
    }
    ShardIngester ingester(collector, options);
    const Status status = ingester.IngestStream(in);
    *stats = ingester.stats();
    if (!status.ok()) return status;
    return std::make_optional(ingester.ReleaseAggregator());
  };
  return input;
}

ShardInput StreamBufferInput(const MixedTupleCollector* collector,
                             std::string name, const std::string* buffer,
                             ShardIngester::Options options) {
  ShardInput input;
  input.name = std::move(name);
  input.load = [collector, buffer,
                options](ShardIngester::Stats* stats)
      -> Result<std::optional<MixedAggregator>> {
    ShardIngester ingester(collector, options);
    Status status = ingester.Feed(*buffer);
    if (status.ok()) status = ingester.Finish();
    *stats = ingester.stats();
    if (!status.ok()) return status;
    return std::make_optional(ingester.ReleaseAggregator());
  };
  return input;
}

ShardInput SnapshotFileInput(const MixedTupleCollector* collector,
                             std::string path) {
  ShardInput input;
  input.name = path;
  input.load = [collector, path = std::move(path)](ShardIngester::Stats* stats)
      -> Result<std::optional<MixedAggregator>> {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      return Status::IoError("cannot open snapshot file");
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad()) {
      return Status::IoError("read error on snapshot file");
    }
    const std::string bytes = contents.str();
    Result<MixedAggregator> aggregator =
        DecodeAggregatorSnapshot(bytes, collector);
    if (!aggregator.ok()) return aggregator.status();
    stats->bytes = bytes.size();
    stats->accepted = aggregator.value().num_reports();
    return std::make_optional(std::move(aggregator).value());
  };
  return input;
}

}  // namespace ldp::stream
