// ServerSession: the server half of a Pipeline. Owns the shards currently
// streaming in, one aggregate per collection epoch, and a PrivacyAccountant
// that enforces the config's epoch plan under sequential composition — the
// deployment loop of a real LDP service, where the same population is
// collected from round after round against one lifetime budget.
//
// Surface: Feed (incremental shard bytes), IngestInputs (bulk-load stream
// and session snapshot files), Merge (fold in a peer server's session
// snapshot), Snapshot (serialise every epoch's state for a reducer),
// Estimate (per-epoch means/frequencies).
//
// Determinism contract: an epoch's state is integer sums, so it depends only
// on which reports were folded — not on shard boundaries, close order,
// IngestInputs argument order or peer merge order. A session fed the same
// reports as Pipeline::Collect reproduces it bit for bit.
//
// Concurrency: with ServerSessionOptions::ingest_threads >= 2 the session
// owns a util::ThreadPool and Feed becomes asynchronous — each open shard is
// a serial queue keyed by its shard id, so chunks of one shard decode in
// Feed-call order (the stream stays intact) while different shards decode
// concurrently. CloseShard and ShardStats are the drain points: they block
// until the shard's queued chunks are consumed. Per-shard byte order is
// preserved, so a concurrent session is bit-identical to the serial one at
// every thread count — snapshots and estimates included. The whole public
// surface is additionally thread-safe (one internal mutex), so multiple
// producer threads may feed disjoint shards; calls targeting the *same*
// shard must still be externally ordered, or "per-shard FIFO" has no
// meaning.
//
// Accounting model: every user in the population reports once per epoch, so
// the campaign-plan spend is charged to the anonymous ledger
// (kAnonymousReporter) when an epoch opens (epoch 0 at session creation,
// later ones at AdvanceEpoch). When the lifetime budget cannot afford the
// next epoch, AdvanceEpoch fails and the collection campaign is over. On
// top of that plan ledger, shards opened with an authenticated reporter id
// (OpenShard(reporter_id), fed by protocol v3 HELLOs) charge that
// reporter's own ledger — idempotently per (reporter, epoch), so a
// reconnect, extra shard, or second relay edge never double-spends — and a
// reporter whose lifetime budget cannot afford the epoch is refused before
// a shard opens.

#ifndef LDP_API_SERVER_SESSION_H_
#define LDP_API_SERVER_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "core/accountant.h"
#include "obs/metrics.h"
#include "stream/shard_ingester.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace ldp::obs {
class EventJournal;
}  // namespace ldp::obs

namespace ldp::api {

/// 'LDPE' little-endian — multi-epoch session snapshots. Layout (integers
/// little-endian):
///   u32 magic 'LDPE', u16 version, u8 kind (always 0), u8 mechanism,
///   u8 oracle, u64 schema_hash, f64 epsilon, u32 num_epochs, then per epoch:
///     u64 size, size bytes of that epoch's aggregator snapshot
///     (stream/snapshot.h 'LDPA'),
///   then the per-reporter privacy ledger section:
///   u32 num_reporters, then per reporter in ascending id order:
///     u16 id_length, id bytes, u64 refusals, u32 num_epoch_entries,
///     then per entry: u32 epoch, f64 epsilon spent.
/// Only version 3 (version 2 'LDPA' sections, with exact integer sums) is
/// read; versions 1 and 2 are refused with a message naming the version. The
/// kind byte is a leftover of the retired numeric-only stream kind: it is
/// always written as 0, and a nonzero byte is refused with InvalidArgument.
inline constexpr uint32_t kSessionSnapshotMagic = 0x4550444cu;
inline constexpr uint16_t kSessionSnapshotVersion = 3;

/// The preamble of a session snapshot; together with the attribute schema it
/// is enough to rebuild the pipeline configuration (tools/ldp_aggregate
/// does).
struct SessionSnapshotConfig {
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  double epsilon = 0.0;
  uint64_t schema_hash = 0;
  uint32_t epochs = 0;
};

/// Parses just the session preamble (magic through num_epochs) without
/// decoding any epoch state.
Result<SessionSnapshotConfig> DecodeSessionSnapshotConfig(
    const std::string& bytes);

/// Checks a session snapshot's preamble against the protocol `expected`
/// names (mechanism, oracle, schema hash, ε) — the gate both a session merge
/// and a relay root apply before decoding any epoch state. Returns
/// FailedPrecondition naming the first mismatch.
Status CheckSessionSnapshotCompatible(const SessionSnapshotConfig& config,
                                      const stream::StreamHeader& expected);

struct ServerSessionOptions {
  /// Per-shard framing/rejection policy (stream/shard_ingester.h).
  stream::ShardIngester::Options ingest;
  /// Workers decoding open shards concurrently within an epoch. At <= 1 the
  /// session is fully synchronous (the historical behavior); at >= 2 it owns
  /// a ThreadPool and Feed enqueues chunks on the shard's serial queue. The
  /// thread count never changes results — only throughput.
  unsigned ingest_threads = 0;
  /// Backpressure bound for concurrent sessions: Feed blocks (without
  /// holding the session lock) while a shard has at least this many bytes
  /// queued undecoded, so a producer outrunning the pool cannot buffer a
  /// whole shard in memory. One chunk may overshoot the bound; 1
  /// effectively serializes Feed with the decode, and 0 is treated as 1.
  size_t max_pending_feed_bytes = 8u << 20;
  /// Optional telemetry (obs/metrics.h): a non-null registry makes the
  /// session resolve its metric handles there, share ingest counters with
  /// every shard's ingester, and instrument its owned pool. Must outlive
  /// the session. Telemetry is write-only observation — snapshots and
  /// estimates are bit-identical with it on or off.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional campaign event journal (obs/journal.h) receiving shard
  /// open/close/abandon, epoch advance, and accountant refusal events.
  obs::EventJournal* journal = nullptr;
};

class ServerSession {
 public:
  // --- epochs ------------------------------------------------------------

  /// The epoch currently receiving reports (0-based).
  uint32_t current_epoch() const;

  /// Epochs materialized so far (current included).
  uint32_t num_epochs() const;

  /// Closes the current epoch and opens the next, charging its ε to the
  /// accountant. Fails (and opens nothing) while shards are still open, or
  /// when the charge would exceed the lifetime budget.
  Status AdvanceEpoch();

  /// Total per-user ε spent across the epochs opened so far.
  double epsilon_spent() const;

  /// A const view of the accountant's per-reporter ledgers. The reference
  /// stays valid for the session's lifetime, but reading it while another
  /// thread advances epochs or opens identified shards races: take this
  /// view only from a quiescent session (exit stats, post-drain reporting).
  const PrivacyAccountant& accountant() const { return accountant_; }

  // --- feeding the current epoch -----------------------------------------

  /// Opens a new shard (one client report stream) in the current epoch and
  /// returns its id. Ids are never reused, across epochs included: feeding
  /// a shard closed in an earlier epoch fails rather than landing in a new
  /// shard that happened to take the same slot.
  size_t OpenShard();

  /// Opens a shard attributed to an authenticated reporter: charges the
  /// config's ε to `reporter_id`'s ledger for the current epoch before
  /// anything opens. The charge is idempotent per (reporter, epoch) — a
  /// reporter reconnecting or opening several shards in one epoch spends ε
  /// exactly once. Fails with FailedPrecondition (opening nothing, and
  /// counting a refusal against the reporter) when the reporter's lifetime
  /// budget cannot afford the epoch. An empty id is the anonymous shard,
  /// charged to nobody beyond the plan ledger.
  Result<size_t> OpenShard(const std::string& reporter_id);

  /// Feeds `size` bytes of shard `shard`'s stream; chunks may be arbitrary.
  /// Synchronous sessions consume in place and return the shard's sticky
  /// stream status. Concurrent sessions copy the chunk, enqueue it on the
  /// shard's serial queue, and return OK; a framing error discovered on a
  /// worker makes *later* Feed calls on that shard return it, and CloseShard
  /// always reports it.
  Status Feed(size_t shard, const char* data, size_t size);
  Status Feed(size_t shard, const std::string& bytes) {
    return Feed(shard, bytes.data(), bytes.size());
  }

  /// Declares end-of-stream on shard `shard` and folds its aggregate into
  /// the current epoch. On a concurrent session this is a drain point: it
  /// blocks until the shard's queued chunks are decoded (without stalling
  /// other shards' Feed calls), then merges on the calling thread.
  Status CloseShard(size_t shard);

  /// Discards shard `shard` without merging anything: drains its queued
  /// chunks, records final stats, and frees the ingester. The transport
  /// edge calls this when a reporter's connection dies mid-stream — an
  /// aborted upload must contribute nothing, even if it happened to stop on
  /// a frame boundary. Returns the shard's final statistics.
  Result<stream::ShardIngester::Stats> AbandonShard(size_t shard);

  /// Per-shard framing/decoding statistics (valid for open or closed
  /// shards, any epoch). A drain point on concurrent sessions, like
  /// CloseShard, so the stats cover every chunk fed before the call.
  Result<stream::ShardIngester::Stats> ShardStats(size_t shard) const;

  /// Bulk-loads input files; the session's only batch loader. Each path is
  /// opened once, on a worker of `pool` (falling back to the session's own
  /// ingest pool, then to inline, when null), and recognised by its magic: a
  /// report stream ('LDPS') decodes through a ShardIngester with the
  /// session's ingest options, a session snapshot ('LDPE') is read whole.
  /// Anything else is refused with InvalidArgument. The loaded inputs then
  /// merge — report streams into the epoch current at the call, session
  /// snapshots epoch-aligned (see Merge); the result does not depend on the
  /// arguments' order. If any input fails to load, nothing merges and the
  /// first failure (in argument order) is returned, naming its path; a
  /// merge that fails stops the batch at that input, likewise named.
  /// `summary`, when non-null, is filled either way.
  Status IngestInputs(const std::vector<std::string>& paths, ThreadPool* pool,
                      stream::MultiShardSummary* summary = nullptr);

  // --- merging -----------------------------------------------------------

  /// Folds a peer's session snapshot ('LDPE', see Snapshot) into the
  /// session epoch by epoch, advancing (and charging) this session as
  /// needed to materialize the peer's later epochs, and unions the peer's
  /// reporter ledgers. Any other bytes are refused with InvalidArgument; a
  /// malformed snapshot, or one whose sums would overflow ours
  /// (OutOfRange), mutates nothing.
  Status Merge(const std::string& snapshot_bytes);

  // --- snapshots ----------------------------------------------------------

  /// Serialises every epoch's aggregate as one session snapshot.
  std::string Snapshot() const;

  // --- estimates ----------------------------------------------------------

  /// Reports accumulated in `epoch` (closed shards and merges only).
  Result<uint64_t> num_reports(uint32_t epoch) const;

  /// Unbiased mean estimate of numeric attribute `attribute` in `epoch`.
  Result<double> EstimateMean(uint32_t attribute, uint32_t epoch) const;

  /// Unbiased frequency estimates of categorical attribute `attribute`.
  Result<std::vector<double>> EstimateFrequencies(uint32_t attribute,
                                                  uint32_t epoch) const;

  /// All of `epoch`'s estimates at once.
  Result<PipelineEstimates> Estimate(uint32_t epoch) const;

 private:
  friend class Pipeline;

  /// A concurrent shard's flow-control block: the sticky framing error its
  /// worker tasks surface to later Feed calls, and the queued-byte count
  /// behind Options::max_pending_feed_bytes. Heap-allocated with its own
  /// lock so workers can touch it while the session mutex is held by a
  /// drain (CloseShard), and so its address survives shards_ reallocation.
  struct AsyncShardState {
    std::mutex mutex;
    Status status = Status::OK();
    size_t pending_bytes = 0;
    std::condition_variable capacity;  // signalled as workers consume
  };

  struct ShardState {
    std::unique_ptr<stream::ShardIngester> ingester;  // null once closed
    stream::ShardIngester::Stats final_stats;         // filled at close
    std::shared_ptr<AsyncShardState> async;           // concurrent mode only
  };

  ServerSession(std::shared_ptr<const internal_api::PipelineState> state,
                PrivacyAccountant accountant, ServerSessionOptions options);

  Status CheckEpoch(uint32_t epoch) const;

  // The public methods lock mutex_ and delegate to these; Merge recurses
  // into AdvanceEpoch, so both need lock-free bodies.
  Status AdvanceEpochLocked();
  Status FeedLocked(size_t shard, const char* data, size_t size);
  Status MergeLocked(const std::string& snapshot_bytes);
  size_t OpenShardLocked();

  /// Resolves the per-reporter labeled metric handles (refusal counter,
  /// spend gauge) for `reporter_id`, bounding exposition cardinality: after
  /// kMaxLabeledReporters distinct ids, further reporters collapse into the
  /// {reporter="_other"} series. Null handles when telemetry is off.
  struct ReporterMetricHandles {
    obs::Counter* refusals = nullptr;
    obs::Gauge* spent = nullptr;
  };
  ReporterMetricHandles ReporterMetrics(const std::string& reporter_id);

  /// Blocks until shard `shard`'s queued chunks are decoded (no-op on
  /// synchronous sessions). Callers drop mutex_ for the wait so other
  /// shards keep flowing, though holding it would not deadlock — worker
  /// tasks never take it.
  void DrainShard(size_t shard) const;

  std::shared_ptr<const internal_api::PipelineState> state_;
  PrivacyAccountant accountant_;
  ServerSessionOptions options_;
  obs::SessionMetrics metrics_;  // all-null when options_.metrics is null
  /// Reporter ids granted their own labeled metric series (bounded; see
  /// ReporterMetrics).
  std::set<std::string> labeled_reporters_;
  /// Guards everything below plus accountant_. Worker tasks touch only
  /// their shard's ingester and AsyncShardError, never this mutex, so drain
  /// points may hold it while waiting. Heap-allocated to keep the session
  /// movable (Result<ServerSession> moves it); moving a session with feeds
  /// in flight is safe — tasks reference only heap state.
  std::unique_ptr<std::mutex> mutex_;
  std::vector<MixedAggregator> epochs_;
  std::vector<ShardState> shards_;  // every shard ever opened (ids stable)
  size_t open_shards_ = 0;
  /// Decodes open shards when options_.ingest_threads >= 2; null otherwise.
  /// Declared last so it is destroyed FIRST: its destructor drains and
  /// joins, so no queued task can outlive the shard table above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ldp::api

#endif  // LDP_API_SERVER_SESSION_H_
