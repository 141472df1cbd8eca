// ReportServer: the network ingestion edge of a collection deployment. It
// owns a Listener (TCP or Unix-domain) and an event-driven core: N loop
// threads (Options::acceptors) each drive an epoll Poller over non-blocking
// sockets, running a small per-connection state machine (reading-prefix →
// reading-payload → dispatch) that feeds DATA bytes straight into
// api::ServerSession::Feed — the same zero-copy framing, per-shard strand
// scheduling, and backpressure as every other ingest path. One loop thread
// serves thousands of connections, so the edge scales to C10K+ reporters
// instead of one blocked thread per socket. A framing error, a mid-stream
// disconnect, or a slow-loris timeout poisons/abandons exactly that
// connection's shards; honest connections are untouched.
//
// Multiplexing: the protocol lets one connection carry many logical shards
// concurrently, each on a client-chosen *channel* (HELLO opens one,
// DATA/CLOSE_SHARD name one, SHARD_CLOSED echoes one). DATA gets no
// reply: a connection's next message is read only after Feed returns, so
// the socket's own flow control carries the per-shard backpressure back to
// the reporter.
//
// Identity: with Options::campaign_key set, every HELLO must be protocol
// v3 — reporter id plus an HMAC-SHA256 tag over (id, channel, epoch,
// header) — verified constant-time *before* the stream header is decoded;
// a refused HELLO never opens a shard or touches the session. The id keys
// the session's per-reporter privacy ledger, so a reporter reconnecting or
// sharding across connections is charged ε once per epoch. Tag
// verification is HELLO-only: the DATA hot path is untouched. Only the
// operator moves the epoch (AdvanceEpoch); no message on the wire can.
//
// Determinism and threading: aggregates are exact integer sums, so closed
// shards merge in whatever order they close and the session still equals
// the file-based run. A CLOSE_SHARD becomes the last task on its shard's
// strand (api::ServerSession::CloseShardAsync), behind the shard's DATA:
// that task writes the WAL close record, merges, and sends SHARD_CLOSED
// itself when the connection has nothing else queued, else hands the reply
// to the owning loop. Replies to other channels keep flowing meanwhile. On
// a session without ingest threads the task runs inline on the loop. The
// ServerSession surface is thread-safe, so loops feed disjoint shards
// without further coordination. A shard held at Feed's backpressure bound
// stalls its whole loop (bounded by the ingest pool's drain rate), not just
// its own connection. net::MergeScheduler keeps the ordinal bookkeeping.

#ifndef LDP_NET_REPORT_SERVER_H_
#define LDP_NET_REPORT_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/server_session.h"
#include "net/merge_scheduler.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "util/result.h"

namespace ldp::obs {
class EventJournal;
}  // namespace ldp::obs

namespace ldp::net {

/// Durability hook on the accepted-frame path: every callback fires
/// *before* the corresponding session call, so a crash after the callback
/// loses nothing the reporter was told about. relay::FrameWal implements
/// this; net/ sees only the interface, keeping the dependency pointed
/// relay -> net. OnShardOpen/OnShardData run on loop threads (one shard is
/// only ever touched by its owning loop); OnShardClose/OnShardAbandon may
/// run on the shard's strand (a session pool worker) — implementations
/// serialize per shard themselves (distinct shards never share a callback).
class ShardDurabilityHook {
 public:
  virtual ~ShardDurabilityHook() = default;
  /// A fresh shard opened for `ordinal` in `epoch`; `header_bytes` is the
  /// validated stream header its byte stream starts with and `reporter_id`
  /// the authenticated identity it was charged to (empty when anonymous) —
  /// logged so a replay restores the exact per-reporter spend. Not called
  /// for resumed shards (their log already holds the header).
  virtual void OnShardOpen(size_t shard, uint64_t ordinal, uint32_t epoch,
                           const std::string& reporter_id,
                           const std::string& header_bytes) = 0;
  /// An accepted DATA payload, about to be fed to the session.
  virtual void OnShardData(size_t shard, const char* data, size_t size) = 0;
  /// Called on the shard's strand immediately before the session merge,
  /// so the log records which shards merged. The merge order it records
  /// does not matter: the sums are exact.
  virtual void OnShardClose(size_t shard) = 0;
  /// The shard was dropped (disconnect, timeout, poison, shutdown).
  virtual void OnShardAbandon(size_t shard) = 0;
};

/// A shard reconstructed by WAL replay that was still open at the crash:
/// HELLO for its ordinal re-attaches to it instead of opening a new shard,
/// and the reporter is told to skip `durable_bytes` post-header bytes.
struct ResumedShard {
  size_t shard = 0;
  uint64_t durable_bytes = 0;
};

struct ReportServerOptions {
  /// Event-loop threads (at least 1). Each drives its own Poller over a
  /// share of the connections; new connections are dealt round-robin.
  unsigned acceptors = 1;
  /// Reap a connection that takes longer than this to complete a protocol
  /// message, or sits idle between messages this long (0 = wait forever).
  /// The budget covers a whole prefix or payload — partial reads do not
  /// reset it — which is what bounds slow-loris reporters trickling bytes.
  /// A connection whose channels are all awaiting their SHARD_CLOSED
  /// verdict is exempt: that wait belongs to the server — the shard's
  /// queued chunks draining and the merge — not to the peer.
  /// Even at 0, a teardown's goodbye flush stays bounded by a fixed grace
  /// so Stop(drain) cannot hang on a peer that never reads its verdict.
  int idle_timeout_ms = 30000;
  /// When nonzero, the campaign's fleet size: every epoch admits shards
  /// with ordinals 0..expected_shards-1 only, each completing (merged or
  /// abandoned) at most once; a repeat HELLO is refused as "already
  /// completed this epoch". At 0 (ad hoc), any ordinal not currently
  /// streaming is admitted.
  uint64_t expected_shards = 0;
  /// Ignored. Declared only because campaign_bench sets it; delete it once
  /// the benchmark stops.
  int merge_turn_timeout_ms = 120000;
  /// Optional telemetry (obs/metrics.h): connection/HELLO/shard counters,
  /// DATA read and close-start wait histograms. Typically the same
  /// registry the session reports through. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional campaign event journal: HELLO accept/refuse and close
  /// enter/exit events (the session journals shard lifecycle itself).
  obs::EventJournal* journal = nullptr;
  /// Accept SNAPSHOT messages from downstream relay nodes (a root or
  /// mid-tier collector). Off by default: an edge collector should not let
  /// arbitrary peers inject whole aggregates.
  bool accept_snapshots = false;
  /// When non-empty, the campaign's shared HMAC key: every HELLO must carry
  /// a reporter id whose tag verifies (constant-time) against this key
  /// before the stream header is even decoded — an unauthenticated or
  /// forged HELLO never reaches the session. When empty, only anonymous
  /// HELLOs are accepted; an identified HELLO to a keyless server is
  /// refused loudly rather than silently skipping verification.
  std::string campaign_key;
  /// Optional write-ahead durability hook (relay::FrameWal). Must outlive
  /// the server.
  ShardDurabilityHook* wal = nullptr;
  /// Shards a WAL replay left open, keyed by ordinal: a resumable HELLO for
  /// one of these re-attaches instead of opening a new shard, and HELLO_OK
  /// carries its durable byte count; a fresh HELLO for one is refused.
  /// Entries are claimed by the first matching HELLO;
  /// ReportServer::AdvanceEpoch abandons the unclaimed ones (a new epoch
  /// has no pre-crash shards).
  std::unordered_map<uint64_t, ResumedShard> resume_shards;
  /// Ordinals a WAL replay already closed into the current epoch: they
  /// start completed, so a re-HELLO for one is refused as a duplicate.
  std::set<uint64_t> completed_ordinals;
};

/// Monotonic counters over the server's lifetime.
struct ReportServerStats {
  uint64_t connections = 0;       ///< Accepted connections.
  uint64_t shards_merged = 0;     ///< Shards closed cleanly and folded in.
  uint64_t shards_discarded = 0;
  ///< Shards closed poisoned, or abandoned by a hard stop before their
  ///< close task started (contributed 0).
  uint64_t shards_abandoned = 0;
  ///< Shards dropped by disconnect/timeouts, or unclaimed WAL resume shards
  ///< an epoch advance gave up on.
  uint64_t hello_rejected = 0;    ///< Connections refused at HELLO.
  uint64_t hello_unauthenticated = 0;
  ///< HELLOs refused by the auth gate (bad tag, wrong version for the
  ///< server's key state) — a subset of hello_rejected.
  uint64_t protocol_errors = 0;   ///< Connections killed by bad framing.
  uint64_t snapshots_accepted = 0;  ///< Relay SNAPSHOTs stored (fresh seq).
  uint64_t snapshots_stale = 0;     ///< Retries acked without replacing.
  uint64_t snapshots_refused = 0;   ///< Relay SNAPSHOTs rejected.
  uint64_t nodes_folded = 0;        ///< Relay nodes merged by Fold.
};

class ReportServer {
 public:
  /// Binds `endpoint` and starts accepting. `session` and the pipeline
  /// behind `expected` must outlive the server; `expected` is the stream
  /// header every reporter must HELLO with (Pipeline::header()).
  static Result<std::unique_ptr<ReportServer>> Start(
      api::ServerSession* session, const stream::StreamHeader& expected,
      const Endpoint& endpoint, ReportServerOptions options);

  /// Hard stop (drain = false).
  ~ReportServer();

  ReportServer(const ReportServer&) = delete;
  ReportServer& operator=(const ReportServer&) = delete;

  /// Stops accepting new connections, joins the loops, and waits for the
  /// closes in flight. With `drain`, in-flight shards finish naturally —
  /// bounded by the idle timeout, and even with idle_timeout_ms == 0 a
  /// final reply a peer never reads is given up on after a fixed grace, so
  /// a drain always terminates. Without `drain`, connections are shut down
  /// immediately and their open shards abandoned, closes whose task has
  /// not started included ("collector is shutting down"). Idempotent; the
  /// first call wins.
  void Stop(bool drain);

  /// The bound endpoint with any ephemeral TCP port resolved — what
  /// reporters should connect to.
  const Endpoint& endpoint() const { return listener_.endpoint(); }

  ReportServerStats stats() const;

  /// The operator's one way to open the next collection epoch; no peer can.
  /// Refused while any shard is open. Otherwise abandons the WAL resume
  /// entries no reporter claimed, advances the session (the accountant
  /// refuses once the plan is spent), and forgets the completed ordinals
  /// so 0..N-1 stream again.
  Status AdvanceEpoch();

  /// Merges the retained relay snapshots (highest seq per node) into the
  /// session (in ascending node id order, so the first error is fixed); the
  /// sums are exact, so a two-tier campaign reproduces the tree-shaped file
  /// run bit for bit.
  /// Call after Stop(drain): no connection is racing the session. A
  /// malformed snapshot mutates nothing (the session stages before
  /// committing); folding continues past it and the first error is
  /// returned.
  Status FoldRelaySnapshots();

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  /// One logical shard multiplexed over a connection.
  struct ChannelState {
    size_t shard = 0;
    uint64_t ordinal = 0;
    /// CLOSE_SHARD received: the channel now belongs to its strand close.
    /// A dying connection abandons only its non-closing channels — a close
    /// in flight completes (the reply just goes nowhere), exactly as a
    /// blocking close used to survive its peer.
    bool closing = false;
  };

  enum class ReadPhase : uint8_t { kPrefix, kPayload };

  /// One connection. Read-path fields are touched only by the owning loop
  /// thread; `mutex` guards the fields shared with strand closes and Stop
  /// (channels, outbuf, flags) and serializes every send on the socket.
  struct Conn {
    Socket socket;
    size_t loop = 0;

    // --- owning-loop-thread only ---------------------------------------
    ReadPhase phase = ReadPhase::kPrefix;
    char prefix[kMessageHeaderBytes] = {};
    size_t prefix_got = 0;
    MessageHeader header;
    std::string payload;
    size_t payload_got = 0;
    uint64_t data_started_ns = 0;
    /// When the current message (or the wait for the next one) must
    /// complete; re-armed at prefix completion and message completion,
    /// never by partial reads. max() means unarmed (no bound). With
    /// idle_timeout_ms == 0 only goodbye flushes are armed (a bounded
    /// grace, so Stop(drain) cannot hang on a peer that never reads).
    SteadyTime deadline = SteadyTime::max();
    bool reads_closed = false;  ///< Poisoned: flush the outbuf, then die.

    // --- shared with strand closes / Stop (guarded by mutex) ------------
    std::mutex mutex;
    std::unordered_map<uint32_t, ChannelState> channels;
    std::string outbuf;
    size_t outbuf_sent = 0;
    /// The poller watches writability: the loop flushes the outbuf as the
    /// socket drains, and strands leave the sending to it.
    bool want_write = false;
    bool close_after_flush = false;
    /// A verdict sits in the outbuf that the loop has not taken from its
    /// flush inbox yet: the idle sweep must not reap the connection, or
    /// the verdict is lost.
    bool verdict_queued = false;
    /// A strand sent a verdict straight to the socket since the idle sweep
    /// last looked: the peer's idle budget starts over from the verdict,
    /// not from its CLOSE_SHARD.
    bool verdict_sent = false;
    bool dead = false;  ///< Torn down; late strand replies are dropped.
  };

  /// One event-loop thread's state. `conns` is owned by the loop thread;
  /// `mutex` guards only the two inboxes other threads push into.
  struct Loop {
    Poller poller;
    int wake_read = -1;
    int wake_write = -1;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    std::mutex mutex;
    std::vector<std::shared_ptr<Conn>> adopt_inbox;  ///< Newly accepted.
    std::vector<std::shared_ptr<Conn>> flush_inbox;  ///< Strand replies.
    bool woken = false;  // coalesces wake-pipe writes
  };

  ReportServer(api::ServerSession* session, stream::StreamHeader expected,
               ReportServerOptions options);

  // --- event loop ------------------------------------------------------
  void LoopMain(size_t index);
  void WakeLoop(size_t index);
  void AcceptReady(Loop& loop);
  void AdoptConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Drains readable bytes through the prefix/payload state machine until
  /// the socket would block, the dispatch budget runs out, or the
  /// connection dies.
  void HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Dispatches one complete message; returns false when the connection
  /// was poisoned or torn down.
  bool DispatchMessage(Loop& loop, const std::shared_ptr<Conn>& conn);
  bool HandleHello(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Counts a refused HELLO (as unauthenticated, with an auth_refuse
  /// event, when `unauthenticated`), replies ERROR{verdict}, and closes the
  /// connection, abandoning its other channels. Returns false.
  bool RefuseHello(Loop& loop, const std::shared_ptr<Conn>& conn,
                   uint64_t ordinal, const Status& verdict,
                   bool unauthenticated);
  bool HandleSnapshot(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// End-of-stream / recv-fault / reap handling (see the protocol-error
  /// accounting rules in the .cc).
  void HandleConnFailure(Loop& loop, const std::shared_ptr<Conn>& conn,
                         bool clean_eof, bool reaped);
  /// Queues ERROR{verdict}, abandons the connection's shards, counts a
  /// protocol error if none was open, and flags close-after-flush.
  void PoisonConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                  const Status& verdict, bool count_always);
  /// Abandons every non-closing channel; returns how many channels (of any
  /// kind) were present before.
  size_t AbandonConnChannels(const std::shared_ptr<Conn>& conn);
  /// Unregisters and closes the connection. Channels must already be
  /// abandoned or closing.
  void DestroyConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Sends as much of the outbuf as the socket takes, with `conn.mutex`
  /// held, and compacts what was sent. False when the peer is gone.
  static bool SendQueued(Conn& conn);
  /// SendQueued from the owning loop; manages write interest and
  /// close-after-flush teardown.
  void FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// FlushConn at the end of a read batch, unless a close is in flight:
  /// its verdict's delivery sends the outbuf, in the same write.
  void FlushUnlessAVerdictWill(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Stops reading, flushes what is queued, then tears the connection
  /// down (the polite goodbye after an ERROR or a drain).
  void CloseAfterFlush(Loop& loop, const std::shared_ptr<Conn>& conn);
  void QueueMessage(const std::shared_ptr<Conn>& conn, MessageType type,
                    const std::string& payload);
  void ArmDeadline(const std::shared_ptr<Conn>& conn);

  /// Queues `state`'s close as the last task on its shard's strand; the
  /// task finishes the ordinal and delivers the verdict.
  void CloseOnStrand(const std::shared_ptr<Conn>& conn, uint32_t channel,
                     const ChannelState& state);
  /// Counts the merge or discard and sends SHARD_CLOSED, behind whatever
  /// the connection has queued, from the calling strand; when the socket
  /// cannot take it all (or the loop already waits on it), hands the rest
  /// to the owning loop.
  void DeliverVerdict(const std::shared_ptr<Conn>& conn, uint32_t channel,
                      const Status& closed,
                      const stream::ShardIngester::Stats& stats);
  /// Stop has begun (stop_accepting_, read under mutex_).
  bool Stopping() const;
  void CountProtocolError();
  void CountAbandoned();

  api::ServerSession* session_;
  const stream::StreamHeader expected_;
  const ReportServerOptions options_;
  obs::NetServerMetrics metrics_;  // all-null when options_.metrics is null

  Listener listener_;
  std::vector<std::unique_ptr<Loop>> loops_;
  size_t rr_next_ = 0;  // round-robin loop assignment (loop 0 thread only)

  mutable std::mutex mutex_;
  /// Replay-resumable shards not yet claimed by a HELLO (see Options).
  std::unordered_map<uint64_t, ResumedShard> resume_shards_;
  /// The latest snapshot accepted from each relay node.
  struct PendingSnapshot {
    uint64_t seq = 0;
    std::string bytes;
  };
  std::map<uint64_t, PendingSnapshot> relay_snapshots_;
  /// Live connections by fd, for Stop's shutdown sweep. Conns unregister
  /// under mutex_ before their fd closes, so a registered fd is never
  /// stale.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  ReportServerStats stats_;
  std::condition_variable stopped_cv_;  // signalled when a Stop completes
  /// Signalled as closes_in_flight_ drops; Stop waits for it to reach 0.
  std::condition_variable closes_cv_;
  size_t closes_in_flight_ = 0;
  bool stop_accepting_ = false;
  bool stopped_ = false;  // Stop already ran (threads joined)
  /// Stop(drain = false): a close task that starts now abandons its shard.
  std::atomic<bool> hard_stop_{false};
  MergeScheduler scheduler_;
};

}  // namespace ldp::net

#endif  // LDP_NET_REPORT_SERVER_H_
