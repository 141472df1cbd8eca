#include "net/merge_scheduler.h"

#include <string>

#include "net/report_server.h"

namespace ldp::net {

MergeScheduler::MergeScheduler(api::ServerSession* session,
                               const ReportServerOptions& options)
    : session_(session), options_(options) {
  // Ordinals a WAL replay already merged start done, so a re-HELLO is
  // refused. Nothing else can see the scheduler yet: no lock.
  for (uint64_t ordinal : options.completed_ordinals) FinishLocked(ordinal);
}

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

}  // namespace ldp::net
