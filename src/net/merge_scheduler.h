// MergeScheduler: the collector edge's ordinal bookkeeping. Aggregates are
// exact integer sums (core/mixed_collector.h), so shards merge in whatever
// order they close, each on its own strand (api::ServerSession::
// CloseShardAsync); no close waits for another. ReportServer registers an
// ordinal at HELLO (one shard per ordinal at a time; with expected_shards =
// N only 0..N-1, each at most once per epoch) and finishes it when its
// shard merges or is abandoned.

#ifndef LDP_NET_MERGE_SCHEDULER_H_
#define LDP_NET_MERGE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <set>

#include "api/server_session.h"
#include "util/status.h"

namespace ldp::net {

struct ReportServerOptions;

class MergeScheduler {
 public:
  /// Marks options.completed_ordinals done. `session` and `options` must
  /// outlive the scheduler.
  MergeScheduler(api::ServerSession* session,
                 const ReportServerOptions& options);

  MergeScheduler(const MergeScheduler&) = delete;
  MergeScheduler& operator=(const MergeScheduler&) = delete;

  /// Validates and claims `ordinal` for a new shard (bounds and duplicate
  /// checks; see ReportServerOptions::expected_shards). Refused when the
  /// session is no longer at `epoch`, the epoch the HELLO was verified for.
  Status Register(uint64_t ordinal, uint32_t epoch);
  /// Marks `ordinal` finished (merged or abandoned): it leaves the active
  /// set and, with a fleet size, counts as completed this epoch.
  void Finish(uint64_t ordinal);
  /// Refuses while any ordinal is active. Otherwise runs `advance` under
  /// the lock Register checks the epoch under, so no HELLO verified for the
  /// old epoch can open a shard in the new one, and on success forgets the
  /// completed ordinals: 0..N-1 stream again.
  Status AdvanceEpoch(const std::function<Status()>& advance);

 private:
  void FinishLocked(uint64_t ordinal);

  api::ServerSession* const session_;
  const ReportServerOptions& options_;

  std::mutex mutex_;
  /// Ordinals of open shards.
  std::set<uint64_t> active_ordinals_;
  /// With a fleet size: ordinals finished in the current epoch.
  std::set<uint64_t> done_ordinals_;
};

}  // namespace ldp::net

#endif  // LDP_NET_MERGE_SCHEDULER_H_
