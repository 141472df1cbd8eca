#include "net/merge_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/report_server.h"
#include "obs/journal.h"

namespace ldp::net {

MergeScheduler::MergeScheduler(api::ServerSession* session,
                               const ReportServerOptions& options,
                               obs::Histogram* barrier_wait_us,
                               VerdictFn on_verdict)
    : session_(session),
      options_(options),
      barrier_wait_us_(barrier_wait_us),
      on_verdict_(std::move(on_verdict)) {
  // Ordinals a WAL replay already merged start done, so the frontier opens
  // past them and a re-HELLO is refused. No thread runs yet: no lock.
  for (uint64_t ordinal : options.completed_ordinals) FinishLocked(ordinal);
  thread_ = std::thread([this] { Main(); });
}

MergeScheduler::~MergeScheduler() { Shutdown(); }

Status MergeScheduler::Register(uint64_t ordinal, uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  // AdvanceEpoch runs under mutex_ and only while no ordinal is active, so
  // once this check passes the epoch stays put until the ordinal finishes.
  const uint32_t current = session_->current_epoch();
  if (current != epoch) {
    return Status::FailedPrecondition(
        "the collection epoch advanced to " + std::to_string(current) +
        " while this HELLO was being verified");
  }
  if (Strict()) {
    if (ordinal >= options_.expected_shards) {
      return Status::OutOfRange(
          "shard ordinal exceeds the campaign's expected shard count");
    }
    if (done_ordinals_.count(ordinal) != 0) {
      return Status::AlreadyExists(
          "shard ordinal already completed this epoch");
    }
  }
  if (!active_ordinals_.insert(ordinal).second) {
    return Status::AlreadyExists("shard ordinal is already streaming");
  }
  return Status::OK();
}

void MergeScheduler::Finish(uint64_t ordinal) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FinishLocked(ordinal);
  }
  merge_cv_.notify_all();
}

void MergeScheduler::FinishLocked(uint64_t ordinal) {
  active_ordinals_.erase(ordinal);
  if (!Strict()) return;
  // An abandoned ordinal counts as finished too: the barrier must not
  // wedge the campaign on a reporter that died (its shard is simply
  // missing, exactly as a missing file would be).
  done_ordinals_.insert(ordinal);
  while (merge_frontier_ < options_.expected_shards &&
         done_ordinals_.count(merge_frontier_) != 0) {
    ++merge_frontier_;
  }
}

bool MergeScheduler::Strict() const { return options_.expected_shards > 0; }

std::optional<uint64_t> MergeScheduler::TurnLocked() const {
  if (Strict()) return merge_frontier_;
  if (active_ordinals_.empty()) return std::nullopt;
  return *active_ordinals_.begin();
}

void MergeScheduler::Submit(Close close) {
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeEnter, close.ordinal);
  }
  PendingClose pending;
  pending.enqueued_ns = barrier_wait_us_ != nullptr ? obs::SteadyNowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.merge_turn_timeout_ms > 0) {
      pending.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.merge_turn_timeout_ms);
    }
    const uint64_t ordinal = close.ordinal;
    pending.close = std::move(close);
    pending_closes_.emplace(ordinal, std::move(pending));
  }
  merge_cv_.notify_all();
}

Status MergeScheduler::AdvanceEpoch(const std::function<Status()>& advance) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_ordinals_.empty()) {
    return Status::FailedPrecondition(
        std::to_string(active_ordinals_.size()) +
        " shard(s) still open; advance the epoch once they close");
  }
  LDP_RETURN_IF_ERROR(advance());
  done_ordinals_.clear();
  merge_frontier_ = 0;
  return Status::OK();
}

void MergeScheduler::Abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hard_stop_ = true;
  }
  merge_cv_.notify_all();
}

void MergeScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
  }
  merge_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MergeScheduler::Main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // A close is ready when its ordinal holds the merge turn — or the
    // server is tearing down, in which case everything "readies" as an
    // abandonment.
    const bool stopping = hard_stop_ || exit_;
    auto ready = pending_closes_.end();
    bool got_turn = false;
    if (stopping) {
      ready = pending_closes_.begin();
    } else {
      if (const std::optional<uint64_t> turn = TurnLocked()) {
        ready = pending_closes_.find(*turn);
        got_turn = ready != pending_closes_.end();
      }
      if (!got_turn) {
        // Guard against a campaign whose predecessor ordinal never
        // arrives: a close that outwaits merge_turn_timeout_ms is abandoned.
        const SteadyTime now = std::chrono::steady_clock::now();
        ready = std::find_if(
            pending_closes_.begin(), pending_closes_.end(),
            [&](const auto& entry) { return entry.second.deadline <= now; });
      }
    }
    if (ready != pending_closes_.end()) {
      PendingClose pending = std::move(ready->second);
      pending_closes_.erase(ready);
      lock.unlock();
      Complete(std::move(pending), got_turn, stopping);
      lock.lock();
      continue;
    }
    if (exit_) return;  // stopping with nothing pending
    SteadyTime nearest = SteadyTime::max();
    for (const auto& [ordinal, pending] : pending_closes_) {
      nearest = std::min(nearest, pending.deadline);
    }
    if (nearest == SteadyTime::max()) {
      merge_cv_.wait(lock);
    } else {
      merge_cv_.wait_until(lock, nearest);
    }
  }
}

void MergeScheduler::Complete(PendingClose pending, bool got_turn,
                              bool stopping) {
  const Close& close = pending.close;
  if (barrier_wait_us_ != nullptr && pending.enqueued_ns != 0) {
    // The barrier wait alone — how long this ordinal stalled on its
    // predecessors — not the close/merge work that follows.
    barrier_wait_us_->Observe((obs::SteadyNowNs() - pending.enqueued_ns) /
                              1000);
  }
  Status closed = Status::OK();
  if (got_turn) {
    // The close record carries the merge order: written while holding the
    // merge turn, so a replay closes shards in exactly this sequence.
    if (options_.wal != nullptr) options_.wal->OnShardClose(close.shard);
    closed = session_->CloseShard(close.shard);
  } else {
    if (options_.wal != nullptr) options_.wal->OnShardAbandon(close.shard);
    (void)session_->AbandonShard(close.shard);
    closed = stopping
                 ? Status::FailedPrecondition("collector is shutting down")
                 : Status::FailedPrecondition(
                       "timed out waiting for the merge turn (a smaller "
                       "ordinal never finished)");
  }
  Finish(close.ordinal);
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeExit, close.ordinal,
                             closed.ok() ? 0 : 1);
  }
  on_verdict_(close, closed);
}

}  // namespace ldp::net
