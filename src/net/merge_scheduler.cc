#include "net/merge_scheduler.h"

#include <string>
#include <utility>

#include "net/report_server.h"
#include "obs/journal.h"

namespace ldp::net {

MergeScheduler::MergeScheduler(api::ServerSession* session,
                               const ReportServerOptions& options,
                               obs::Histogram* close_wait_us,
                               VerdictFn on_verdict)
    : session_(session),
      options_(options),
      close_wait_us_(close_wait_us),
      on_verdict_(std::move(on_verdict)) {
  // Ordinals a WAL replay already merged start done, so a re-HELLO is
  // refused. No thread runs yet: no lock.
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
  if (options_.expected_shards > 0) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  FinishLocked(ordinal);
}

void MergeScheduler::FinishLocked(uint64_t ordinal) {
  active_ordinals_.erase(ordinal);
  // With a fleet size, an abandoned ordinal completes too: its shard is
  // simply missing, exactly as a missing file would be.
  if (options_.expected_shards > 0) done_ordinals_.insert(ordinal);
}

void MergeScheduler::Submit(Close close) {
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeEnter, close.ordinal);
  }
  PendingClose pending;
  pending.enqueued_ns = close_wait_us_ != nullptr ? obs::SteadyNowNs() : 0;
  pending.close = std::move(close);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_all();
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
  return Status::OK();
}

void MergeScheduler::Abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hard_stop_ = true;
  }
  queue_cv_.notify_all();
}

void MergeScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
  }
  queue_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MergeScheduler::Main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [&] { return !queue_.empty() || exit_; });
    if (queue_.empty()) return;  // exit_ with nothing queued
    // Tearing down, every queued close is abandoned.
    const bool stopping = hard_stop_ || exit_;
    PendingClose pending = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    Complete(std::move(pending), stopping);
    lock.lock();
  }
}

void MergeScheduler::Complete(PendingClose pending, bool stopping) {
  const Close& close = pending.close;
  if (close_wait_us_ != nullptr && pending.enqueued_ns != 0) {
    // The queue wait alone, not the close/merge work that follows.
    close_wait_us_->Observe((obs::SteadyNowNs() - pending.enqueued_ns) / 1000);
  }
  Status closed = Status::OK();
  if (!stopping) {
    if (options_.wal != nullptr) options_.wal->OnShardClose(close.shard);
    closed = session_->CloseShard(close.shard);
  } else {
    if (options_.wal != nullptr) options_.wal->OnShardAbandon(close.shard);
    (void)session_->AbandonShard(close.shard);
    closed = Status::FailedPrecondition("collector is shutting down");
  }
  Finish(close.ordinal);
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeExit, close.ordinal,
                             closed.ok() ? 0 : 1);
  }
  on_verdict_(close, closed);
}

}  // namespace ldp::net
