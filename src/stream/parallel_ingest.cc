#include "stream/parallel_ingest.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "stream/snapshot.h"

namespace ldp::stream {

Result<std::vector<std::unique_ptr<AggregatorHandle>>> LoadHandleSources(
    const std::vector<HandleShardSource>& sources, ThreadPool* pool,
    MultiShardSummary* summary) {
  if (sources.empty()) {
    return Status::InvalidArgument("no shards to ingest");
  }
  const size_t num_shards = sources.size();
  std::vector<std::unique_ptr<AggregatorHandle>> partials(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  std::vector<ShardIngester::Stats> stats(num_shards);
  ParallelFor(pool, num_shards,
              [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
                for (uint64_t s = begin; s < end; ++s) {
                  Result<std::unique_ptr<AggregatorHandle>> loaded =
                      sources[s].load(&stats[s]);
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
    outcome.source = sources[s].name;
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
      return Status(statuses[s].code(), "input '" + sources[s].name +
                                            "': " + statuses[s].message());
    }
  }
  return partials;
}

Result<std::unique_ptr<AggregatorHandle>> IngestHandleSources(
    const AggregatorHandle& prototype,
    const std::vector<HandleShardSource>& sources, ThreadPool* pool,
    MultiShardSummary* summary) {
  std::vector<std::unique_ptr<AggregatorHandle>> partials;
  LDP_ASSIGN_OR_RETURN(partials, LoadHandleSources(sources, pool, summary));
  std::unique_ptr<AggregatorHandle> total = prototype.CloneEmpty();
  for (const std::unique_ptr<AggregatorHandle>& partial : partials) {
    LDP_RETURN_IF_ERROR(total->Merge(*partial));
  }
  return total;
}

HandleShardSource HandleStreamFileSource(const AggregatorHandle& prototype,
                                         std::string path,
                                         ShardIngester::Options options) {
  HandleShardSource source;
  source.name = path;
  source.load = [&prototype, path = std::move(path),
                 options](ShardIngester::Stats* stats)
      -> Result<std::unique_ptr<AggregatorHandle>> {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      return Status::IoError("cannot open shard file");
    }
    ShardIngester ingester(prototype.CloneEmpty(), options);
    const Status status = ingester.IngestStream(in);
    *stats = ingester.stats();
    if (!status.ok()) return status;
    return ingester.ReleaseHandle();
  };
  return source;
}

HandleShardSource HandleStreamBufferSource(const AggregatorHandle& prototype,
                                           std::string name,
                                           const std::string* buffer,
                                           ShardIngester::Options options) {
  HandleShardSource source;
  source.name = std::move(name);
  source.load = [&prototype, buffer,
                 options](ShardIngester::Stats* stats)
      -> Result<std::unique_ptr<AggregatorHandle>> {
    ShardIngester ingester(prototype.CloneEmpty(), options);
    Status status = ingester.Feed(*buffer);
    if (status.ok()) status = ingester.Finish();
    *stats = ingester.stats();
    if (!status.ok()) return status;
    return ingester.ReleaseHandle();
  };
  return source;
}

HandleShardSource HandleSnapshotFileSource(const AggregatorHandle& prototype,
                                           std::string path) {
  HandleShardSource source;
  source.name = path;
  source.load = [&prototype,
                 path = std::move(path)](ShardIngester::Stats* stats)
      -> Result<std::unique_ptr<AggregatorHandle>> {
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
    std::unique_ptr<AggregatorHandle> handle = prototype.CloneEmpty();
    LDP_RETURN_IF_ERROR(handle->MergeEncodedSnapshot(bytes));
    stats->bytes = bytes.size();
    stats->accepted = handle->num_reports();
    return handle;
  };
  return source;
}

}  // namespace ldp::stream
