// Multi-shard ingestion driver: fans a set of shard inputs (report-stream
// files or buffers, snapshot files) across a ThreadPool, one ShardIngester
// per stream, and reduces the per-shard aggregates IN INPUT ORDER. The
// ordered reduction is what makes the result independent of thread
// scheduling: a run over shards whose boundaries match util/threadpool.h
// SplitRange reproduces the pooled single-process CollectProposed bit for
// bit. ServerSession::IngestInputs runs the load phase alone and keeps its
// own epoch-aligned merge.

#ifndef LDP_STREAM_PARALLEL_INGEST_H_
#define LDP_STREAM_PARALLEL_INGEST_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "stream/shard_ingester.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace ldp::stream {

/// Per-shard outcome of a multi-shard ingestion run.
struct ShardIngestOutcome {
  std::string source;  ///< The ShardInput name.
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
/// the shard's aggregate, or no aggregate for inputs the caller folds in
/// itself. Loaders run concurrently, so they must not share mutable state.
struct ShardInput {
  std::string name;
  std::function<Result<std::optional<MixedAggregator>>(
      ShardIngester::Stats* stats)>
      load;
};

/// Loads every input concurrently on `pool` (inline when null) and returns
/// the loaded aggregates in input order. Fails on the first input (in
/// order) that errors; `summary`, when non-null, is filled either way.
Result<std::vector<std::optional<MixedAggregator>>> LoadShardInputs(
    const std::vector<ShardInput>& inputs, ThreadPool* pool,
    MultiShardSummary* summary = nullptr);

/// LoadShardInputs, then merges the shard aggregates IN INPUT ORDER into a
/// fresh aggregate over `collector`.
Result<MixedAggregator> IngestShardInputs(
    const MixedTupleCollector* collector,
    const std::vector<ShardInput>& inputs, ThreadPool* pool,
    MultiShardSummary* summary = nullptr);

/// An input that opens `path` and ingests it as a framed report stream.
/// `collector` must outlive the returned input.
ShardInput StreamFileInput(const MixedTupleCollector* collector,
                           std::string path, ShardIngester::Options options);

/// As StreamFileInput, over an in-memory stream buffer; `buffer` must
/// outlive the returned input.
ShardInput StreamBufferInput(const MixedTupleCollector* collector,
                             std::string name, const std::string* buffer,
                             ShardIngester::Options options);

/// An input that reads `path` and decodes it as an aggregator snapshot.
ShardInput SnapshotFileInput(const MixedTupleCollector* collector,
                             std::string path);

}  // namespace ldp::stream

#endif  // LDP_STREAM_PARALLEL_INGEST_H_
