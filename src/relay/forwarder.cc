#include "relay/forwarder.h"

#include <chrono>
#include <utility>

#include "net/protocol.h"
#include "obs/journal.h"

namespace ldp::relay {

namespace {

// Attempts per background cycle (see Run).
constexpr int kAttemptsPerCycle = 5;

// Bounds one backoff step: first -> doubling -> max.
int NextBackoff(int current_ms, const RelayForwarderOptions& options) {
  if (current_ms <= 0) return options.retry_backoff_ms;
  const int doubled = current_ms * 2;
  return doubled > options.max_backoff_ms ? options.max_backoff_ms : doubled;
}

}  // namespace

RelayForwarder::RelayForwarder(api::ServerSession* session,
                               net::Endpoint upstream,
                               RelayForwarderOptions options)
    : session_(session),
      upstream_(std::move(upstream)),
      options_(options),
      metrics_(obs::RelayMetrics::ForRegistry(options.metrics)) {}

Result<std::unique_ptr<RelayForwarder>> RelayForwarder::Start(
    api::ServerSession* session, const net::Endpoint& upstream,
    RelayForwarderOptions options) {
  if (session == nullptr) {
    return Status::InvalidArgument("relay forwarder needs a session");
  }
  if (options.interval_ms <= 0) {
    return Status::InvalidArgument("relay interval must be positive");
  }
  // Can't use make_unique: the constructor is private.
  std::unique_ptr<RelayForwarder> forwarder(
      new RelayForwarder(session, upstream, options));
  forwarder->thread_ = std::thread([raw = forwarder.get()] { raw->Run(); });
  return forwarder;
}

RelayForwarder::~RelayForwarder() { (void)Stop(/*final_flush=*/false); }

void RelayForwarder::Run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [&] { return stop_; });
    if (stop_) return;
    lock.unlock();
    // A background cycle gives up after a few attempts: the snapshot is
    // cumulative, so whatever this cycle missed the next one covers.
    (void)ForwardCycle(/*force=*/false, kAttemptsPerCycle,
                       /*deadline_ms=*/0);
    lock.lock();
  }
}

Status RelayForwarder::SendOnce(const std::string& snapshot_bytes,
                                uint64_t seq) {
  if (!socket_.valid()) {
    Result<net::Socket> connected = net::ConnectSocket(upstream_);
    if (!connected.ok()) return connected.status();
    socket_ = std::move(connected).value();
    if (options_.idle_timeout_ms > 0) {
      LDP_RETURN_IF_ERROR(socket_.SetIdleTimeout(options_.idle_timeout_ms));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.reconnects;
    }
    if (metrics_.enabled()) metrics_.reconnects->Increment();
  }
  net::SnapshotMessage message;
  message.node = options_.node_id;
  message.seq = seq;
  message.epoch = session_->current_epoch();
  message.snapshot_bytes = snapshot_bytes;
  LDP_RETURN_IF_ERROR(net::SendMessage(&socket_, net::MessageType::kSnapshot,
                                       net::EncodeSnapshot(message)));
  net::MessageType type = net::MessageType::kError;
  std::string payload;
  Result<bool> got =
      net::RecvMessage(&socket_, &type, &payload, options_.idle_timeout_ms);
  if (!got.ok()) return got.status();
  if (!got.value()) return Status::IoError("upstream closed mid-handshake");
  if (type == net::MessageType::kError) {
    Result<net::ErrorMessage> error = net::DecodeErrorMessage(payload);
    if (!error.ok()) return error.status();
    return net::StatusFromWire(error.value().code, error.value().message);
  }
  if (type != net::MessageType::kSnapshotOk) {
    return Status::Internal("upstream sent an unexpected reply type");
  }
  Result<net::SnapshotOkMessage> ok = net::DecodeSnapshotOk(payload);
  if (!ok.ok()) return ok.status();
  if (ok.value().node != options_.node_id || ok.value().seq != seq) {
    return Status::Internal("upstream acked the wrong snapshot");
  }
  return Status::OK();
}

Status RelayForwarder::ForwardCycle(bool force, int attempts,
                                    int deadline_ms) {
  std::lock_guard<std::mutex> cycle(cycle_mutex_);
  const std::string snapshot = session_->Snapshot();
  if (!force && snapshot == last_acked_) return Status::OK();
  const uint64_t seq = next_seq_++;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(deadline_ms > 0 ? deadline_ms : 0);
  int backoff_ms = 0;
  Status last = Status::OK();
  for (int attempt = 0; deadline_ms > 0 || attempt < attempts; ++attempt) {
    if (deadline_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_ && !force) return Status::FailedPrecondition("stopping");
    }
    const uint64_t started_ns = metrics_.enabled() ? obs::SteadyNowNs() : 0;
    last = SendOnce(snapshot, seq);
    if (last.ok()) {
      last_acked_ = snapshot;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.snapshots_forwarded;
        stats_.bytes_forwarded += snapshot.size();
      }
      if (metrics_.enabled()) {
        metrics_.snapshots_forwarded->Increment();
        metrics_.bytes_forwarded->Add(snapshot.size());
        metrics_.forward_us->Observe((obs::SteadyNowNs() - started_ns) /
                                     1000);
      }
      if (options_.journal != nullptr) {
        options_.journal->Record(obs::EventKind::kSnapshotForward,
                                 options_.node_id, seq);
      }
      return Status::OK();
    }
    // Drop the connection: a failed exchange leaves it in an unknown
    // framing state, and redialing is cheap next to a snapshot ship.
    socket_.Close();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.forward_failures;
    }
    if (metrics_.enabled()) metrics_.forward_failures->Increment();
    backoff_ms = NextBackoff(backoff_ms, options_);
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait_for(lock, std::chrono::milliseconds(backoff_ms),
                   [&] { return stop_ && !force; });
    if (stop_ && !force) return Status::FailedPrecondition("stopping");
  }
  return last.ok() ? Status::IoError("relay flush deadline elapsed") : last;
}

Status RelayForwarder::Flush() {
  return ForwardCycle(/*force=*/true, /*attempts=*/0,
                      options_.flush_timeout_ms);
}

Status RelayForwarder::Stop(bool final_flush) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return Status::OK();
    stop_ = true;
    stopped_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  Status flushed = Status::OK();
  if (final_flush) flushed = Flush();
  socket_.Close();
  return flushed;
}

RelayForwarderStats RelayForwarder::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace ldp::relay
