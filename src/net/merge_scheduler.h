// MergeScheduler: the collector edge's ordinal bookkeeping and close queue.
// Aggregates are exact integer sums (core/mixed_collector.h), so shards
// merge in whatever order they close. ReportServer registers an ordinal at
// HELLO (one shard per ordinal at a time; with expected_shards = N only
// 0..N-1, each at most once per epoch), finishes it when its shard is
// abandoned, and submits each CLOSE_SHARD here. The scheduler's thread
// writes the WAL close record, closes (or, on shutdown, abandons) the
// session shard, and hands the verdict back: a close drains the shard's
// queued chunks, which must not stall a loop thread's other connections.

#ifndef LDP_NET_MERGE_SCHEDULER_H_
#define LDP_NET_MERGE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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

  /// Marks options.completed_ordinals done and starts the scheduler
  /// thread. `session`, `options` and options.wal/journal must outlive the
  /// scheduler; `close_wait_us` (Submit to close start) may be null.
  MergeScheduler(api::ServerSession* session,
                 const ReportServerOptions& options,
                 obs::Histogram* close_wait_us, VerdictFn on_verdict);
  ~MergeScheduler();

  MergeScheduler(const MergeScheduler&) = delete;
  MergeScheduler& operator=(const MergeScheduler&) = delete;

  /// Validates and claims `ordinal` for a new shard (bounds and duplicate
  /// checks; see ReportServerOptions::expected_shards). Refused when the
  /// session is no longer at `epoch`, the epoch the HELLO was verified for.
  Status Register(uint64_t ordinal, uint32_t epoch);
  /// Marks `ordinal` finished (merged or abandoned): it leaves the active
  /// set and, with a fleet size, counts as completed this epoch.
  void Finish(uint64_t ordinal);
  /// Takes over a CLOSE_SHARD; it merges as soon as the thread reaches it.
  void Submit(Close close);
  /// Refuses while any ordinal is active. Otherwise runs `advance` under
  /// the lock Register checks the epoch under, so no HELLO verified for the
  /// old epoch can open a shard in the new one, and on success forgets the
  /// completed ordinals: 0..N-1 stream again.
  Status AdvanceEpoch(const std::function<Status()>& advance);
  /// Hard stop: every close queued now or submitted later is abandoned as
  /// "collector is shutting down".
  void Abort();
  /// Abandons what is still queued and joins the thread. Call once no
  /// further close can be submitted. Idempotent.
  void Shutdown();

 private:
  struct PendingClose {
    Close close;
    uint64_t enqueued_ns = 0;
  };

  void Main();
  void FinishLocked(uint64_t ordinal);
  /// Merges (or, when stopping, abandons) one close, finishes its ordinal,
  /// and hands the verdict on.
  void Complete(PendingClose pending, bool stopping);

  api::ServerSession* const session_;
  const ReportServerOptions& options_;
  obs::Histogram* const close_wait_us_;
  const VerdictFn on_verdict_;

  std::mutex mutex_;
  /// Wakes the thread: a close submitted, or a stop.
  std::condition_variable queue_cv_;
  std::deque<PendingClose> queue_;
  /// Ordinals of open shards.
  std::set<uint64_t> active_ordinals_;
  /// With a fleet size: ordinals finished in the current epoch.
  std::set<uint64_t> done_ordinals_;
  bool hard_stop_ = false;
  bool exit_ = false;  // no more submits: drain the queue and leave
  std::thread thread_;  // last: Main reads every member above
};

}  // namespace ldp::net

#endif  // LDP_NET_MERGE_SCHEDULER_H_
