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
// Determinism and threading: closed shards merge in ascending HELLO
// *ordinal* order, not connection-completion order. A CLOSE_SHARD is
// handed to the MergeScheduler (net/merge_scheduler.h), which alone knows
// the merge-turn rule; the server queues each verdict's SHARD_CLOSED reply
// on the owning loop, and replies to other channels keep flowing meanwhile.
// The ServerSession surface is thread-safe, so loops feed disjoint shards
// without further coordination. A shard held at Feed's backpressure bound
// stalls its whole loop (bounded by the ingest pool's drain rate), not
// just its own connection.

#ifndef LDP_NET_REPORT_SERVER_H_
#define LDP_NET_REPORT_SERVER_H_

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
/// run on the merge scheduler — implementations serialize per shard
/// themselves (distinct shards never share a callback).
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
  /// Called inside the shard's merge turn, immediately before the session
  /// close — the close record's sequence is the exact merge order a replay
  /// must reproduce.
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
  /// verdict is exempt: that wait belongs to the merge scheduler and is
  /// bounded by merge_turn_timeout_ms, which may legitimately exceed this.
  /// Even at 0, a teardown's goodbye flush stays bounded by a fixed grace
  /// so Stop(drain) cannot hang on a peer that never reads its verdict.
  int idle_timeout_ms = 30000;
  /// When nonzero, the campaign's fleet size: every epoch expects shards
  /// with ordinals exactly 0..expected_shards-1, and ordinal k merges only
  /// after every smaller ordinal has merged or abandoned (a strict barrier;
  /// see net/merge_scheduler.h). At 0 (ad hoc), merges are ordered only
  /// among shards open concurrently.
  uint64_t expected_shards = 0;
  /// Bound on how long a CLOSE_SHARD may wait for its merge turn before
  /// the shard is abandoned (0 = wait forever). Guards against a campaign
  /// whose predecessor ordinal never arrives — e.g. a dead reporter.
  int merge_turn_timeout_ms = 120000;
  /// Optional telemetry (obs/metrics.h): connection/HELLO/shard counters,
  /// DATA read and merge-barrier latency histograms. Typically the same
  /// registry the session reports through. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional campaign event journal: HELLO accept/refuse and merge-barrier
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
  /// Shards a WAL replay left open, keyed by ordinal: a HELLO for one of
  /// these re-attaches instead of opening a new shard, and HELLO_OK carries
  /// its durable byte count. Entries are claimed by the first matching
  /// HELLO; ReportServer::AdvanceEpoch abandons the unclaimed ones (a new
  /// epoch has no pre-crash shards).
  std::unordered_map<uint64_t, ResumedShard> resume_shards;
  /// Ordinals a WAL replay already closed into the current epoch: they seed
  /// the expected-shards barrier as done, so the frontier starts past them
  /// and a re-HELLO for one is refused as a duplicate.
  std::set<uint64_t> completed_ordinals;
};

/// Monotonic counters over the server's lifetime.
struct ReportServerStats {
  uint64_t connections = 0;       ///< Accepted connections.
  uint64_t shards_merged = 0;     ///< Shards closed cleanly and folded in.
  uint64_t shards_discarded = 0;  ///< Shards closed poisoned (contributed 0).
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

  /// Stops accepting new connections and joins the loops. With `drain`,
  /// in-flight shards finish naturally — bounded by the idle timeout, and
  /// even with idle_timeout_ms == 0 a final reply a peer never reads is
  /// given up on after a fixed grace, so a drain always terminates.
  /// Without `drain`, connections are shut down immediately and their open
  /// shards abandoned. Idempotent; the first call wins.
  void Stop(bool drain);

  /// The bound endpoint with any ephemeral TCP port resolved — what
  /// reporters should connect to.
  const Endpoint& endpoint() const { return listener_.endpoint(); }

  ReportServerStats stats() const;

  /// The operator's one way to open the next collection epoch; no peer can.
  /// Refused while any shard is open. Otherwise abandons the WAL resume
  /// entries no reporter claimed, advances the session (the accountant
  /// refuses once the plan is spent), and resets the expected-shards
  /// barrier so ordinals 0..N-1 stream again.
  Status AdvanceEpoch();

  /// Merges the retained relay snapshots (highest seq per node) into the
  /// session in ascending node-id order — the deterministic fold that makes
  /// a two-tier campaign reproduce the tree-shaped file run bit for bit.
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
    /// CLOSE_SHARD received: the channel now belongs to the merge
    /// scheduler. A dying connection abandons only its non-closing
    /// channels — a close in flight completes (the reply just goes
    /// nowhere), exactly as a blocking close used to survive its peer.
    bool closing = false;
  };

  enum class ReadPhase : uint8_t { kPrefix, kPayload };

  /// One connection. Read-path fields are touched only by the owning loop
  /// thread; `mutex` guards the fields shared with the merge scheduler and
  /// Stop (channels, outbuf, flags).
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
    bool want_write = false;  ///< Poller currently watching writability.

    // --- shared with scheduler / Stop (guarded by mutex) ----------------
    std::mutex mutex;
    std::unordered_map<uint32_t, ChannelState> channels;
    std::string outbuf;
    size_t outbuf_sent = 0;
    bool close_after_flush = false;
    bool dead = false;  ///< Torn down; late scheduler replies are dropped.
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
    std::vector<std::shared_ptr<Conn>> flush_inbox;  ///< Scheduler replies.
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
  /// abandoned or scheduler-owned.
  void DestroyConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Sends as much of the outbuf as the socket takes; manages write
  /// interest and close-after-flush teardown.
  void FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  /// Stops reading, flushes what is queued, then tears the connection
  /// down (the polite goodbye after an ERROR or a drain).
  void CloseAfterFlush(Loop& loop, const std::shared_ptr<Conn>& conn);
  void QueueMessage(const std::shared_ptr<Conn>& conn, MessageType type,
                    const std::string& payload);
  void ArmDeadline(const std::shared_ptr<Conn>& conn);

  /// The scheduler's verdict callback: counts the merge or discard and
  /// queues SHARD_CLOSED on the owning loop (runs on the scheduler thread).
  void DeliverVerdict(const MergeScheduler::Close& close,
                      const Status& closed);
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
  /// The latest snapshot accepted from each relay node. An ordered map so
  /// FoldRelaySnapshots walks nodes in ascending id order.
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
  bool stop_accepting_ = false;
  bool stopped_ = false;  // Stop already ran (threads joined)
  /// Last: its thread calls DeliverVerdict, which uses the members above.
  MergeScheduler scheduler_;
};

}  // namespace ldp::net

#endif  // LDP_NET_REPORT_SERVER_H_
