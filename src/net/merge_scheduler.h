// MergeScheduler: the one owner of the merge-turn rule on the collector
// edge. Closed shards fold into the session in ascending HELLO ordinal
// order, because floating-point accumulation makes merge order observable.
// With ReportServerOptions::expected_shards = N this is a strict barrier
// over ordinals 0..N-1: the session is bit-identical to the file-based
// `ldp_aggregate shard-0 ... shard-N-1` run and to the in-process
// Pipeline::Collect run, no matter when each connection arrives or
// finishes. Ad hoc (N = 0) the order covers shards open concurrently; a
// smaller ordinal that connects only after a larger one closed merges late.
//
// ReportServer registers an ordinal at HELLO, finishes it when its shard
// is abandoned, and submits each CLOSE_SHARD here. The scheduler's thread
// claims turns, writes the WAL close record, closes (or, on a timeout or
// shutdown, abandons) the session shard, and hands the verdict back. Loop
// threads never wait for a turn: ordinal k's close would otherwise
// deadlock waiting for ordinal j served by the same loop.

#ifndef LDP_NET_MERGE_SCHEDULER_H_
#define LDP_NET_MERGE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "api/server_session.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace ldp::net {

struct ReportServerOptions;

class MergeScheduler {
 public:
  /// A CLOSE_SHARD handed to the scheduler.
  struct Close {
    size_t shard = 0;
    uint64_t ordinal = 0;
    uint32_t channel = 0;
    /// Opaque to the scheduler: handed back with the verdict so the server
    /// can route the SHARD_CLOSED reply.
    std::shared_ptr<void> reply_to;
  };
  /// Receives every close's verdict on the scheduler thread, after the
  /// session close or abandon and after the ordinal finished.
  using VerdictFn =
      std::function<void(const Close& close, const Status& verdict)>;

  /// Seeds the barrier with options.completed_ordinals and starts the
  /// scheduler thread. `session`, `options` and options.wal/journal must
  /// outlive the scheduler; `barrier_wait_us` may be null.
  MergeScheduler(api::ServerSession* session,
                 const ReportServerOptions& options,
                 obs::Histogram* barrier_wait_us, VerdictFn on_verdict);
  ~MergeScheduler();

  MergeScheduler(const MergeScheduler&) = delete;
  MergeScheduler& operator=(const MergeScheduler&) = delete;

  /// Validates and claims `ordinal` for a new shard (bounds and duplicate
  /// checks; see ReportServerOptions::expected_shards). Refused when the
  /// session is no longer at `epoch`, the epoch the HELLO was verified for.
  Status Register(uint64_t ordinal, uint32_t epoch);
  /// Marks `ordinal` finished (merged or abandoned): it leaves the active
  /// set, the barrier frontier advances, and waiting closes re-check.
  void Finish(uint64_t ordinal);
  /// Takes over a CLOSE_SHARD. It merges when its ordinal holds the turn,
  /// or is discarded once it has waited merge_turn_timeout_ms.
  void Submit(Close close);
  /// Refuses while any ordinal is active. Otherwise runs `advance` under
  /// the lock Register checks the epoch under, so no HELLO verified for the
  /// old epoch can open a shard in the new one, and on success resets the
  /// barrier: ordinals 0..N-1 stream again.
  Status AdvanceEpoch(const std::function<Status()>& advance);
  /// Hard stop: every close pending now or submitted later is abandoned as
  /// "collector is shutting down".
  void Abort();
  /// Abandons what is still pending and joins the thread. Call once no
  /// further close can be submitted. Idempotent.
  void Shutdown();

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  struct PendingClose {
    Close close;
    uint64_t enqueued_ns = 0;
    SteadyTime deadline = SteadyTime::max();  ///< max(): no timeout
  };

  void Main();
  /// The one place the turn rule is picked: strict (the frontier holds the
  /// turn) with a fleet size, else ad hoc (the smallest open ordinal does).
  bool Strict() const;
  /// The ordinal holding the merge turn, if any.
  std::optional<uint64_t> TurnLocked() const;
  void FinishLocked(uint64_t ordinal);
  /// Merges (got_turn) or abandons one close, finishes its ordinal, and
  /// hands the verdict on.
  void Complete(PendingClose pending, bool got_turn, bool stopping);

  api::ServerSession* const session_;
  const ReportServerOptions& options_;
  obs::Histogram* const barrier_wait_us_;
  const VerdictFn on_verdict_;

  std::mutex mutex_;
  /// Wakes the thread: a close submitted, an ordinal finished, or a stop.
  std::condition_variable merge_cv_;
  /// Closes waiting for their merge turn, keyed by ordinal (an ordinal is
  /// active until finished, so keys are unique).
  std::map<uint64_t, PendingClose> pending_closes_;
  /// Ordinals of open shards; ad hoc, the smallest holds the turn.
  std::set<uint64_t> active_ordinals_;
  /// Strict barrier only: ordinals finished in the current epoch, and the
  /// frontier, the smallest ordinal not yet finished. Both reset when the
  /// epoch advances.
  std::set<uint64_t> done_ordinals_;
  uint64_t merge_frontier_ = 0;
  bool hard_stop_ = false;
  bool exit_ = false;  // no more submits: drain the queue and leave
  std::thread thread_;  // last: Main reads every member above
};

}  // namespace ldp::net

#endif  // LDP_NET_MERGE_SCHEDULER_H_
