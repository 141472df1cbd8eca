// Multi-shard ingestion driver: fans a set of shard sources (report-stream
// files or buffers, snapshot files) of either stream kind across a
// ThreadPool, one ShardIngester per stream, and reduces the per-shard
// aggregates IN SOURCE ORDER. The ordered reduction is what makes the result
// independent of thread scheduling: a run over shards whose boundaries match
// util/threadpool.h SplitRange reproduces the pooled single-process
// CollectProposed bit for bit. ServerSession::IngestInputs runs the load
// phase alone and keeps its own epoch-aligned merge.

#ifndef LDP_STREAM_PARALLEL_INGEST_H_
#define LDP_STREAM_PARALLEL_INGEST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stream/aggregator_handle.h"
#include "stream/shard_ingester.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace ldp::stream {

/// Per-shard outcome of a multi-shard ingestion run.
struct ShardIngestOutcome {
  std::string source;  ///< The HandleShardSource name.
  Status status;       ///< Why this shard failed, if it did.
  ShardIngester::Stats stats;
};

/// Aggregate statistics of a multi-shard ingestion run.
struct MultiShardSummary {
  std::vector<ShardIngestOutcome> shards;
  uint64_t total_reports = 0;  ///< Accepted reports across all shards.
  uint64_t total_rejected = 0;
  uint64_t total_bytes = 0;
};

/// One input of a multi-shard run: a display name plus a loader producing
/// the shard's aggregate. Loaders run concurrently, so they must not share
/// mutable state.
struct HandleShardSource {
  std::string name;
  std::function<Result<std::unique_ptr<AggregatorHandle>>(
      ShardIngester::Stats* stats)>
      load;
};

/// Loads every source concurrently on `pool` (inline when null) and returns
/// the loaded aggregates in source order (null where a loader yielded
/// none). Fails on the first source (in order) that errors; `summary`, when
/// non-null, is filled either way.
Result<std::vector<std::unique_ptr<AggregatorHandle>>> LoadHandleSources(
    const std::vector<HandleShardSource>& sources, ThreadPool* pool,
    MultiShardSummary* summary = nullptr);

/// LoadHandleSources, then merges the shard aggregates IN SOURCE ORDER into
/// a fresh clone of `prototype`.
Result<std::unique_ptr<AggregatorHandle>> IngestHandleSources(
    const AggregatorHandle& prototype,
    const std::vector<HandleShardSource>& sources, ThreadPool* pool,
    MultiShardSummary* summary = nullptr);

/// A source that opens `path` and ingests it as a framed report stream of
/// `prototype`'s kind.
HandleShardSource HandleStreamFileSource(const AggregatorHandle& prototype,
                                         std::string path,
                                         ShardIngester::Options options);

/// As HandleStreamFileSource, over an in-memory stream buffer; `buffer` must
/// outlive the returned source.
HandleShardSource HandleStreamBufferSource(const AggregatorHandle& prototype,
                                           std::string name,
                                           const std::string* buffer,
                                           ShardIngester::Options options);

/// A source that reads `path` and decodes it as an aggregator snapshot of
/// `prototype`'s kind.
HandleShardSource HandleSnapshotFileSource(const AggregatorHandle& prototype,
                                           std::string path);

}  // namespace ldp::stream

#endif  // LDP_STREAM_PARALLEL_INGEST_H_
