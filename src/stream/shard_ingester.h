// ShardIngester: the server-side consumer of one framed report stream
// (stream/report_stream.h). Bytes are fed incrementally — network-buffer
// style — and reports are folded into a MixedAggregator as soon as their
// frame completes, so memory stays O(schema + one frame) no matter how many
// reports the shard carries. All-numeric schemas (the paper's Algorithm 4)
// use the same mixed streams and the same state machine.
//
// Hot-path design: complete items (header, frame length, frame payload) are
// decoded IN PLACE from the caller's buffer — their bytes are never copied
// anywhere. Only the partial item straddling a Feed boundary is staged, in a
// power-of-two ring buffer (util/ringbuf.h) whose read head advances without
// memmoving retained bytes. MixedFrameDecoder validates each frame in one
// pass and folds it into the aggregator from those same bytes, so the
// steady-state accept path copies no payload, makes zero heap allocations
// and builds no Status.
//
// Failure policy: violations of the *framing* layer (bad magic or version,
// header/collector mismatch, oversized frame length, bytes missing at
// Finish) are unrecoverable — the frame boundaries themselves can no longer
// be trusted — and poison the ingester. A frame whose *payload* fails report
// validation (core/wire.h rejects it) only increments the rejected counter
// and is skipped until the rejection budget Options::max_rejected is
// exhausted (0 fails the stream on its first undecodable payload); a
// malicious client can therefore not abort a shard shared with honest
// reports.

#ifndef LDP_STREAM_SHARD_INGESTER_H_
#define LDP_STREAM_SHARD_INGESTER_H_

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/mixed_collector.h"
#include "core/wire.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "util/ringbuf.h"
#include "util/status.h"

namespace ldp::stream {

/// Decodes one report stream into a MixedAggregator, incrementally.
class ShardIngester {
 public:
  struct Options {
    /// Maximum number of undecodable payloads tolerated before the stream
    /// fails (guards against shards that are mostly garbage); 0 fails it on
    /// the first one.
    uint64_t max_rejected = std::numeric_limits<uint64_t>::max();
    /// Optional registry-backed telemetry (obs/metrics.h), typically shared
    /// by every shard of a session. Stats *deltas* are flushed once per
    /// Feed/Finish call — chunk granularity — so the per-frame accept loop
    /// touches no atomics and stays allocation-free. All-null = off.
    obs::IngestMetrics metrics;
  };

  struct Stats {
    uint64_t bytes = 0;     ///< Total bytes consumed, header included.
    uint64_t frames = 0;    ///< Completed frames seen.
    uint64_t accepted = 0;  ///< Reports folded into the aggregator.
    uint64_t rejected = 0;  ///< Frames whose payload failed validation.
  };

  /// `collector` must outlive the ingester; the stream header is validated
  /// against it before any report is accepted.
  explicit ShardIngester(const MixedTupleCollector* collector)
      : ShardIngester(collector, Options()) {}
  ShardIngester(const MixedTupleCollector* collector, Options options);

  /// Consumes `size` bytes of the stream. May be called with arbitrarily
  /// small or large chunks; returns the sticky stream status. Complete
  /// frames inside `data` are decoded in place without copying.
  Status Feed(const char* data, size_t size);
  Status Feed(const std::string& bytes) {
    return Feed(bytes.data(), bytes.size());
  }

  /// Declares end-of-stream: fails if the stream is already poisoned, ended
  /// mid-frame, or never carried a full header.
  Status Finish();

  /// Convenience loop: feeds `in` to completion in fixed-size chunks and
  /// calls Finish.
  Status IngestStream(std::istream& in);

  /// True once the header has been parsed and validated.
  bool header_seen() const { return state_ != State::kHeader; }

  /// The stream header; only meaningful once header_seen().
  const StreamHeader& header() const { return header_; }

  /// The accumulated aggregate. Valid at any point during ingestion (it
  /// reflects every report accepted so far).
  const MixedAggregator& aggregator() const { return aggregator_; }

  /// Transfers the aggregate out of the ingester (for shard drivers that
  /// merge it elsewhere). The ingester must not be fed afterwards.
  MixedAggregator ReleaseAggregator() { return std::move(aggregator_); }

  const Stats& stats() const { return stats_; }

 private:
  enum class State { kHeader, kFrameLength, kFramePayload };

  /// Bytes the current state-machine item needs before it can be consumed.
  size_t NeedBytes() const;

  /// Consumes exactly one complete item of NeedBytes() bytes at `data`.
  Status ConsumeItem(const char* data, size_t size);

  /// Decodes one complete frame payload, applying the rejection policy.
  /// Returns false when a rejection poisoned the stream (see failed_); an
  /// accepted frame builds no Status.
  bool AcceptFrame(const char* data, size_t size);

  /// The rejection policy, kept out of AcceptFrame so the accept path stays
  /// small enough to inline into the frame loop.
  bool RejectFrame(const char* reason);

  /// The pre-telemetry Feed body; Feed wraps it with a metrics flush.
  Status FeedChunk(const char* data, size_t size);

  /// Flushes stats_ − published_ to the Options::metrics counters.
  void PublishMetrics();

  Status Poison(Status status);

  Options options_;
  MixedAggregator aggregator_;
  MixedFrameDecoder decoder_;
  StreamHeader header_;
  Stats stats_;
  Stats published_;  // the prefix of stats_ already flushed to metrics
  Status failed_ = Status::OK();  // sticky framing-layer error
  State state_ = State::kHeader;
  RingBuffer staged_;         // the partial item straddling Feed boundaries
  std::string wrap_scratch_;  // reused backing for wrapped ring reads
  uint32_t frame_length_ = 0;
};

/// Per-shard outcome of a multi-shard ingestion run.
struct ShardIngestOutcome {
  std::string source;  ///< The input's name (its path).
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

}  // namespace ldp::stream

#endif  // LDP_STREAM_SHARD_INGESTER_H_
