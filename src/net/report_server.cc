#include "net/report_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/wire.h"
#include "obs/journal.h"
#include "util/hmac.h"

namespace ldp::net {

namespace {

// How many complete messages one readable event may dispatch before the
// loop moves on to other connections. Level-triggered polling re-fires for
// whatever is left, so this is fairness, not correctness.
constexpr int kDispatchBudget = 64;

// Once this much of the outbuf's front has been sent, the dead prefix is
// compacted away instead of waiting for a full drain.
constexpr size_t kOutbufCompactBytes = 64u << 10;

// Bound on a close-after-flush goodbye when idle_timeout_ms == 0: the
// farewell (ERROR or final SHARD_CLOSED) must drain within this long or
// the connection is torn down anyway — otherwise a peer that never reads
// would pin the loop alive and Stop(drain) could hang forever.
constexpr int kCloseFlushGraceMs = 30000;

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status MakePipeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  const int fd_flags = ::fcntl(fd, F_GETFD, 0);
  if (fd_flags < 0 || ::fcntl(fd, F_SETFD, fd_flags | FD_CLOEXEC) != 0) {
    return ErrnoStatus("fcntl(FD_CLOEXEC)");
  }
  return Status::OK();
}

uint32_t DecodeDataChannel(const std::string& payload) {
  return internal_wire::LoadLittleEndian<uint32_t>(payload.data());
}

}  // namespace

ReportServer::ReportServer(api::ServerSession* session,
                           stream::StreamHeader expected,
                           ReportServerOptions options)
    : session_(session),
      expected_(expected),
      options_(options),
      metrics_(obs::NetServerMetrics::ForRegistry(options.metrics)),
      scheduler_(session, options_) {}

Result<std::unique_ptr<ReportServer>> ReportServer::Start(
    api::ServerSession* session, const stream::StreamHeader& expected,
    const Endpoint& endpoint, ReportServerOptions options) {
  if (session == nullptr) {
    return Status::InvalidArgument("report server needs a session");
  }
  options.acceptors = options.acceptors == 0 ? 1 : options.acceptors;
  // Can't use make_unique: the constructor is private.
  std::unique_ptr<ReportServer> server(
      new ReportServer(session, expected, options));
  Result<Listener> listener = Listener::Bind(endpoint);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  // No loop exists yet, so no lock is needed.
  server->resume_shards_ = options.resume_shards;
  server->loops_.reserve(options.acceptors);
  for (unsigned i = 0; i < options.acceptors; ++i) {
    server->loops_.push_back(std::make_unique<Loop>());
    Loop& loop = *server->loops_.back();
    Result<Poller> poller = Poller::Create();
    if (!poller.ok()) return poller.status();
    loop.poller = std::move(poller).value();
    int fds[2];
    if (::pipe(fds) != 0) return ErrnoStatus("pipe");
    loop.wake_read = fds[0];
    loop.wake_write = fds[1];
    Status ready = MakePipeNonBlocking(loop.wake_read);
    if (ready.ok()) ready = MakePipeNonBlocking(loop.wake_write);
    if (ready.ok()) ready = loop.poller.Add(loop.wake_read, true, false);
    if (!ready.ok()) return ready;  // ~ReportServer closes the pipe fds
  }
  for (unsigned i = 0; i < options.acceptors; ++i) {
    server->loops_[i]->thread =
        std::thread([raw = server.get(), i] { raw->LoopMain(i); });
  }
  if (options.journal != nullptr) {
    options.journal->Record(obs::EventKind::kServerStart);
  }
  return server;
}

ReportServer::~ReportServer() {
  Stop(/*drain=*/false);
  for (auto& loop : loops_) {
    if (loop->wake_read >= 0) ::close(loop->wake_read);
    if (loop->wake_write >= 0) ::close(loop->wake_write);
  }
}

void ReportServer::Stop(bool drain) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_accepting_) {
      // Another thread is already stopping (or has stopped): joining the
      // same std::threads twice is UB, so wait for that stop to finish.
      stopped_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stop_accepting_ = true;
    if (!drain) {
      hard_stop_ = true;
      // Kick every connection out of the kernel: reads return EOF, sends
      // fail, and the loops tear everything down and abandon open shards.
      for (const auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RDWR);
    } else {
      // A drain waits only for shards in flight: connections idling
      // between shards are woken so they notice the stop immediately
      // instead of sitting out the idle timeout.
      for (const auto& [fd, conn] : conns_) {
        bool busy;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mutex);
          busy = !conn->channels.empty();
        }
        if (!busy) ::shutdown(fd, SHUT_RDWR);
      }
    }
  }
  for (size_t i = 0; i < loops_.size(); ++i) WakeLoop(i);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    // The loops are gone, so no close can be queued any more; wait out the
    // ones in flight (after a hard stop, those not yet started abandon).
    std::unique_lock<std::mutex> lock(mutex_);
    closes_cv_.wait(lock, [&] { return closes_in_flight_ == 0; });
    stopped_ = true;
    stopped_cv_.notify_all();
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kServerStop);
  }
}

bool ReportServer::Stopping() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_accepting_;
}

ReportServerStats ReportServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Status ReportServer::FoldRelaySnapshots() {
  std::map<uint64_t, PendingSnapshot> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(relay_snapshots_);
  }
  Status first_error = Status::OK();
  for (const auto& [node, snap] : pending) {
    const Status merged = session_->Merge(snap.bytes);
    if (merged.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.nodes_folded;
    } else if (first_error.ok()) {
      first_error = merged;
    }
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kRelayFold, node,
                               merged.ok() ? 0 : 1);
    }
  }
  return first_error;
}

// --- event loop ------------------------------------------------------------

void ReportServer::WakeLoop(size_t index) {
  Loop& loop = *loops_[index];
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    if (loop.woken) return;
    loop.woken = true;
  }
  const char byte = 1;
  // A full pipe means a wake is already pending; nothing to do.
  (void)!::write(loop.wake_write, &byte, 1);
}

void ReportServer::LoopMain(size_t index) {
  Loop& loop = *loops_[index];
  // Loop 0 doubles as the acceptor: the listener fd sits in its poll set
  // next to the connections it serves.
  bool listener_watched = false;
  if (index == 0 && loop.poller.Add(listener_.fd(), true, false).ok()) {
    listener_watched = true;
  }
  std::vector<PollerEvent> events;
  std::vector<std::shared_ptr<Conn>> adopts;
  std::vector<std::shared_ptr<Conn>> flushes;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(loop.mutex);
      adopts.swap(loop.adopt_inbox);
      flushes.swap(loop.flush_inbox);
      loop.woken = false;
    }
    for (const auto& conn : adopts) AdoptConn(loop, conn);
    adopts.clear();
    for (const auto& conn : flushes) {
      // A strand reply just landed (merge verdict or drain goodbye):
      // re-arm so a deadline that expired while the close waited cannot
      // reap the connection before the reply flushes, and so a drain
      // goodbye gets its bounded grace even with the idle timer off.
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        conn->verdict_queued = false;
      }
      ArmDeadline(conn);
      FlushConn(loop, conn);
    }
    flushes.clear();

    const bool stopping = Stopping();
    if (stopping && listener_watched) {
      (void)loop.poller.Remove(listener_.fd());
      listener_watched = false;
    }
    if (stopping && loop.conns.empty()) {
      std::lock_guard<std::mutex> lock(loop.mutex);
      if (loop.adopt_inbox.empty() && loop.flush_inbox.empty()) return;
      continue;  // late arrivals: adopt them so they can be torn down
    }

    // Sleep until the nearest connection deadline (the slow-loris budget
    // or a goodbye-flush grace), a readiness event, or a wake.
    int timeout_ms = -1;
    if (!loop.conns.empty()) {
      SteadyTime nearest = SteadyTime::max();
      for (const auto& [fd, conn] : loop.conns) {
        nearest = std::min(nearest, conn->deadline);
      }
      if (nearest != SteadyTime::max()) {
        const auto now = std::chrono::steady_clock::now();
        if (nearest <= now) {
          timeout_ms = 0;
        } else {
          const auto until =
              std::chrono::duration_cast<std::chrono::milliseconds>(nearest -
                                                                    now)
                  .count();
          timeout_ms = static_cast<int>(std::min<long long>(until + 1, 60000));
        }
      }
    }

    events.clear();
    if (!loop.poller.Wait(timeout_ms, &events).ok()) {
      // A broken poller would spin; this path should be unreachable.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const PollerEvent& event : events) {
      if (event.fd == loop.wake_read) {
        char drain[256];
        while (::read(loop.wake_read, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (listener_watched && event.fd == listener_.fd()) {
        AcceptReady(loop);
        continue;
      }
      auto found = loop.conns.find(event.fd);
      if (found == loop.conns.end()) continue;  // torn down this batch
      std::shared_ptr<Conn> conn = found->second;
      if (conn->dead) continue;
      if (conn->reads_closed) {
        // Poisoned: only the error flush is left. An error event means the
        // peer is gone and even that is moot.
        if (event.error) {
          DestroyConn(loop, conn);
        } else if (event.writable) {
          FlushConn(loop, conn);
        }
        continue;
      }
      if (event.readable || event.error) {
        HandleReadable(loop, conn);
        if (!conn->dead) FlushUnlessAVerdictWill(loop, conn);
      }
      if (event.writable && !conn->dead) FlushConn(loop, conn);
    }

    if (!loop.conns.empty()) {
      const SteadyTime now = std::chrono::steady_clock::now();
      std::vector<std::shared_ptr<Conn>> expired;
      for (const auto& [fd, conn] : loop.conns) {
        if (conn->deadline <= now) expired.push_back(conn);
      }
      for (const auto& conn : expired) {
        if (conn->reads_closed) {
          // The poisoned reply could not be flushed within the budget.
          DestroyConn(loop, conn);
          continue;
        }
        bool goodbye_stuck;
        bool awaiting_verdicts;
        {
          std::lock_guard<std::mutex> conn_lock(conn->mutex);
          goodbye_stuck = conn->close_after_flush && !conn->verdict_queued;
          awaiting_verdicts = !conn->channels.empty();
          for (const auto& [channel, state] : conn->channels) {
            if (!state.closing) {
              awaiting_verdicts = false;
              break;
            }
          }
          // Delivered mid-sweep: flushes at the next iteration's top. Sent
          // by a strand: the peer's idle budget restarts once.
          awaiting_verdicts = awaiting_verdicts || conn->verdict_queued ||
                              conn->verdict_sent;
          conn->verdict_sent = false;
        }
        if (goodbye_stuck) {
          // A drain goodbye the peer never read: give up on delivery.
          DestroyConn(loop, conn);
          continue;
        }
        if (awaiting_verdicts) {
          // Every channel is awaiting its SHARD_CLOSED verdict: the wait
          // is the server's own (the shard's queued chunks draining, and
          // the merge, which a session held by another caller can stall
          // past the idle budget), and the client has stopped sending on
          // purpose — not a slow loris. Re-arm rather than reap, or the
          // verdicts would be lost.
          ArmDeadline(conn);
          continue;
        }
        HandleConnFailure(loop, conn, /*clean_eof=*/false, /*reaped=*/true);
      }
    }
  }
}

void ReportServer::AcceptReady(Loop& loop) {
  while (true) {
    Result<Socket> accepted = listener_.TryAccept();
    // A broken listener stops accepting; existing connections keep going.
    if (!accepted.ok()) return;
    // Invalid covers both "drained" and "one connection lost to a
    // transient fault" — either way, level-triggered polling re-fires if
    // more are pending.
    if (!accepted.value().valid()) return;
    Socket socket = std::move(accepted).value();
    if (!socket.SetNonBlocking().ok()) continue;
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(socket);
    const size_t target = rr_next_++ % loops_.size();
    conn->loop = target;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_accepting_) return;  // racing Stop: drop the connection
      ++stats_.connections;
      conns_.emplace(conn->socket.fd(), conn);
    }
    if (metrics_.enabled()) metrics_.connections->Increment();
    if (target == 0) {
      AdoptConn(loop, conn);
    } else {
      Loop& other = *loops_[target];
      {
        std::lock_guard<std::mutex> lock(other.mutex);
        other.adopt_inbox.push_back(conn);
      }
      WakeLoop(target);
    }
  }
}

void ReportServer::AdoptConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  const int fd = conn->socket.fd();
  if (!loop.poller.Add(fd, true, false).ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.erase(fd);
    return;  // the socket closes with the last Conn reference
  }
  loop.conns.emplace(fd, conn);
  ArmDeadline(conn);
}

void ReportServer::ArmDeadline(const std::shared_ptr<Conn>& conn) {
  if (options_.idle_timeout_ms > 0) {
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.idle_timeout_ms);
    return;
  }
  // No idle timeout: the only bounded wait is a teardown's goodbye flush.
  // Without it, Stop(drain) could hang on a peer that never reads its
  // final reply.
  bool closing = conn->reads_closed;
  if (!closing) {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    closing = conn->close_after_flush;
  }
  if (closing && conn->deadline == SteadyTime::max()) {
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(kCloseFlushGraceMs);
  }
}

void ReportServer::HandleReadable(Loop& loop,
                                  const std::shared_ptr<Conn>& conn) {
  int budget = kDispatchBudget;
  while (!conn->dead && !conn->reads_closed) {
    if (conn->phase == ReadPhase::kPrefix) {
      bool eof = false;
      Result<size_t> got =
          conn->socket.RecvSome(conn->prefix + conn->prefix_got,
                                kMessageHeaderBytes - conn->prefix_got, &eof);
      if (!got.ok()) {
        HandleConnFailure(loop, conn, /*clean_eof=*/false, /*reaped=*/false);
        return;
      }
      if (eof) {
        // EOF on a message boundary is the clean goodbye; EOF inside a
        // prefix means the framing was cut mid-message.
        HandleConnFailure(loop, conn, /*clean_eof=*/conn->prefix_got == 0,
                          /*reaped=*/false);
        return;
      }
      if (got.value() == 0) return;  // socket drained
      conn->prefix_got += got.value();
      if (conn->prefix_got < kMessageHeaderBytes) continue;
      Result<MessageHeader> header =
          DecodeMessageHeader(conn->prefix, kMessageHeaderBytes);
      if (!header.ok()) {
        // Unknown type or a hostile length prefix: the message boundaries
        // can no longer be trusted — kill the connection.
        PoisonConn(loop, conn, header.status(), /*count_always=*/true);
        return;
      }
      conn->header = header.value();
      conn->prefix_got = 0;
      conn->phase = ReadPhase::kPayload;
      conn->payload.resize(conn->header.payload_length);
      conn->payload_got = 0;
      // The payload gets its own whole-message budget, exactly like the
      // prefix: partial reads never reset it (the slow-loris defense).
      ArmDeadline(conn);
      // The DATA service-time clock starts with the payload read: the
      // histogram covers wire read + session Feed.
      conn->data_started_ns =
          metrics_.enabled() && conn->header.type == MessageType::kData
              ? obs::SteadyNowNs()
              : 0;
    }
    while (conn->payload_got < conn->payload.size()) {
      bool eof = false;
      Result<size_t> got =
          conn->socket.RecvSome(conn->payload.data() + conn->payload_got,
                                conn->payload.size() - conn->payload_got,
                                &eof);
      if (!got.ok() || eof) {
        HandleConnFailure(loop, conn, /*clean_eof=*/false, /*reaped=*/false);
        return;
      }
      if (got.value() == 0) return;  // socket drained mid-payload
      conn->payload_got += got.value();
    }
    if (!DispatchMessage(loop, conn)) return;
    conn->phase = ReadPhase::kPrefix;
    conn->prefix_got = 0;
    ArmDeadline(conn);
    // Between shards is a drain point: once the server is stopping, a
    // connection with nothing open has nothing left to say.
    bool no_channels;
    {
      std::lock_guard<std::mutex> conn_lock(conn->mutex);
      no_channels = conn->channels.empty();
    }
    if (no_channels && Stopping()) {
      CloseAfterFlush(loop, conn);
      return;
    }
    if (--budget <= 0) return;  // fairness: let other connections run
  }
}

bool ReportServer::DispatchMessage(Loop& loop,
                                   const std::shared_ptr<Conn>& conn) {
  switch (conn->header.type) {
    case MessageType::kHello:
      return HandleHello(loop, conn);
    case MessageType::kData: {
      if (conn->payload.size() < kDataChannelPrefixBytes) {
        PoisonConn(loop, conn,
                   Status::InvalidArgument(
                       "DATA payload is missing its channel prefix"),
                   /*count_always=*/false);
        return false;
      }
      const uint32_t channel = DecodeDataChannel(conn->payload);
      size_t shard = 0;
      bool open = false;
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        auto found = conn->channels.find(channel);
        if (found != conn->channels.end() && !found->second.closing) {
          shard = found->second.shard;
          open = true;
        }
      }
      if (!open) {
        PoisonConn(loop, conn,
                   Status::FailedPrecondition("DATA before HELLO"),
                   /*count_always=*/false);
        return false;
      }
      const char* data = conn->payload.data() + kDataChannelPrefixBytes;
      const size_t size = conn->payload.size() - kDataChannelPrefixBytes;
      // Durability before visibility: the frame bytes hit the WAL before
      // the session, so nothing the reporter gets acked can be lost.
      if (options_.wal != nullptr && size > 0) {
        options_.wal->OnShardData(shard, data, size);
      }
      // Feed without conn->mutex: it may block on ingest backpressure, and
      // strand closes must stay able to queue replies meanwhile. Only the
      // owning loop erases a non-closing channel, so `shard` stays valid.
      const Status fed = session_->Feed(shard, data, size);
      if (conn->data_started_ns != 0) {
        metrics_.data_messages->Increment();
        metrics_.data_read_us->Observe(
            (obs::SteadyNowNs() - conn->data_started_ns) / 1000);
      }
      if (!fed.ok()) {
        PoisonConn(loop, conn, fed, /*count_always=*/false);
        return false;
      }
      return true;
    }
    case MessageType::kCloseShard: {
      Result<CloseShardMessage> close = DecodeCloseShard(conn->payload);
      if (!close.ok()) {
        PoisonConn(loop, conn, close.status(), /*count_always=*/false);
        return false;
      }
      ChannelState state;
      bool open = false;
      {
        std::lock_guard<std::mutex> conn_lock(conn->mutex);
        auto found = conn->channels.find(close.value().channel);
        if (found != conn->channels.end() && !found->second.closing) {
          found->second.closing = true;
          state = found->second;
          open = true;
        }
      }
      if (!open) {
        PoisonConn(loop, conn,
                   Status::FailedPrecondition("CLOSE_SHARD before HELLO"),
                   /*count_always=*/false);
        return false;
      }
      // What is queued now (a fresh HELLO's HELLO_OK) leaves with this
      // close's verdict.
      CloseOnStrand(conn, close.value().channel, state);
      return !conn->dead;
    }
    case MessageType::kSnapshot:
      return HandleSnapshot(loop, conn);
    default:
      // Server-only types arriving from a client.
      PoisonConn(loop, conn,
                 Status::InvalidArgument("unexpected message type"),
                 /*count_always=*/false);
      return false;
  }
}

bool ReportServer::RefuseHello(Loop& loop, const std::shared_ptr<Conn>& conn,
                               uint64_t ordinal, const Status& verdict,
                               bool unauthenticated) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hello_rejected;
    if (unauthenticated) ++stats_.hello_unauthenticated;
  }
  if (metrics_.enabled()) {
    metrics_.hello_refused->Increment();
    if (unauthenticated) metrics_.hello_unauthenticated->Increment();
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(unauthenticated ? obs::EventKind::kAuthRefuse
                                             : obs::EventKind::kHelloRefuse,
                             ordinal);
  }
  // A refused HELLO closes the whole connection, so its other channels
  // abandon.
  QueueMessage(conn, MessageType::kError, EncodeError(verdict));
  AbandonConnChannels(conn);
  CloseAfterFlush(loop, conn);
  return false;
}

bool ReportServer::HandleHello(Loop& loop,
                               const std::shared_ptr<Conn>& conn) {
  Result<HelloMessage> hello = DecodeHello(conn->payload);
  if (!hello.ok()) {
    PoisonConn(loop, conn, hello.status(), /*count_always=*/false);
    return false;
  }
  const uint32_t channel = hello.value().channel;
  bool duplicate;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    duplicate = conn->channels.count(channel) != 0;
  }
  if (duplicate) {
    PoisonConn(loop, conn,
               Status::FailedPrecondition(
                   "HELLO reuses a channel that is still open"),
               /*count_always=*/false);
    return false;
  }
  // The authentication gate runs before the stream header is decoded: a
  // forged or unauthenticated HELLO is refused on the cheap fixed fields
  // alone and never reaches the session. DecodeHello guarantees a tag
  // exactly when an id is present.
  const uint64_t ordinal = hello.value().ordinal;
  // One read of the epoch serves the tag check, the WAL open record and
  // HELLO_OK; Register refuses the HELLO if the operator advanced
  // the epoch since, so a HELLO verified for epoch e never opens a shard
  // in e+1.
  const uint32_t epoch = session_->current_epoch();
  Status auth = Status::OK();
  if (options_.campaign_key.empty()) {
    if (!hello.value().reporter_id.empty()) {
      auth = Status::FailedPrecondition(
          "this collector has no campaign key and refuses authenticated "
          "HELLOs rather than skipping verification");
    }
  } else if (hello.value().reporter_id.empty()) {
    auth = Status::FailedPrecondition(
        "this campaign requires an authenticated HELLO");
  } else {
    const std::string expected_tag = ComputeHelloTag(
        options_.campaign_key, hello.value().reporter_id,
        hello.value().channel, epoch, hello.value().header_bytes,
        hello.value().fresh);
    if (!util::ConstantTimeEqual(expected_tag, hello.value().auth_tag)) {
      // Naming the epoch lets a reporter that signed for an old one
      // re-sign once.
      auth = Status::FailedPrecondition(
          "HELLO authentication tag does not verify for this campaign, "
          "channel, and epoch (the collector is at epoch " +
          std::to_string(epoch) + ")");
    }
  }
  if (!auth.ok()) {
    return RefuseHello(loop, conn, ordinal, auth, /*unauthenticated=*/true);
  }
  Result<stream::StreamHeader> peer =
      stream::DecodeStreamHeader(hello.value().header_bytes);
  Status refusal = peer.ok()
                       ? stream::CheckHeadersCompatible(expected_, peer.value())
                       : peer.status();
  if (refusal.ok() && hello.value().fresh) {
    // A fresh HELLO skips the resume handshake, so it must not claim an
    // ordinal whose bytes a WAL replay holds; the entry stays for a
    // resumable HELLO.
    std::lock_guard<std::mutex> lock(mutex_);
    if (resume_shards_.count(ordinal) != 0) {
      refusal = Status::FailedPrecondition(
          "shard ordinal " + std::to_string(ordinal) +
          " has durable bytes to resume; a fresh HELLO cannot open it");
    }
  }
  if (refusal.ok()) refusal = scheduler_.Register(ordinal, epoch);
  if (!refusal.ok()) {
    return RefuseHello(loop, conn, ordinal, refusal,
                       /*unauthenticated=*/false);
  }
  // A WAL replay may have left this ordinal's shard open at the crash:
  // re-attach to it instead of opening anew, and tell the reporter how
  // many post-header bytes are already durable.
  ResumedShard resumed;
  bool is_resume = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = resume_shards_.find(ordinal);
    if (found != resume_shards_.end()) {
      resumed = found->second;
      is_resume = true;
      resume_shards_.erase(found);
    }
  }
  ChannelState state;
  state.ordinal = ordinal;
  if (is_resume) {
    state.shard = resumed.shard;
  } else {
    // Opening charges the reporter's privacy ledger for this epoch
    // (idempotently — a reconnect is already paid for). A reporter whose
    // lifetime budget cannot afford the epoch is refused here, shardless.
    Result<size_t> opened = session_->OpenShard(hello.value().reporter_id);
    if (!opened.ok()) {
      // Release the ordinal the way an abandoned shard would: the campaign
      // proceeds with this reporter's shard simply missing.
      scheduler_.Finish(state.ordinal);
      return RefuseHello(loop, conn, ordinal, opened.status(),
                         /*unauthenticated=*/false);
    }
    state.shard = opened.value();
  }
  if (metrics_.enabled()) metrics_.hello_accepted->Increment();
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kHelloAccept, ordinal);
  }
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    conn->channels.emplace(channel, state);
  }
  if (!is_resume) {
    if (options_.wal != nullptr) {
      options_.wal->OnShardOpen(state.shard, state.ordinal, epoch,
                                hello.value().reporter_id,
                                hello.value().header_bytes);
    }
    // The shard's byte stream is header + frames, exactly as on disk; the
    // validated HELLO header bytes are that header. (A replayed shard
    // already holds its header — nothing to feed, nothing new for the WAL.)
    const Status fed =
        session_->Feed(state.shard, hello.value().header_bytes);
    if (!fed.ok()) {
      PoisonConn(loop, conn, fed, /*count_always=*/false);
      return false;
    }
  }
  HelloOkMessage ok;
  ok.channel = channel;
  ok.shard = state.shard;
  ok.epoch = epoch;
  ok.resume_offset = is_resume ? resumed.durable_bytes : 0;
  QueueMessage(conn, MessageType::kHelloOk, EncodeHelloOk(ok));
  // A resumable HELLO's reporter waits for this reply. A fresh one reads it
  // later, so it leaves with the next flush: the end of this read batch, or
  // a strand's verdict (FlushUnlessAVerdictWill).
  if (!hello.value().fresh) FlushConn(loop, conn);
  return !conn->dead;
}

bool ReportServer::HandleSnapshot(Loop& loop,
                                  const std::shared_ptr<Conn>& conn) {
  bool has_channels;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    has_channels = !conn->channels.empty();
  }
  if (has_channels) {
    PoisonConn(loop, conn,
               Status::FailedPrecondition(
                   "SNAPSHOT while this connection's shard is open"),
               /*count_always=*/false);
    return false;
  }
  Result<SnapshotMessage> snap = DecodeSnapshot(conn->payload);
  Status refusal = Status::OK();
  if (!snap.ok()) {
    refusal = snap.status();
  } else if (!options_.accept_snapshots) {
    refusal = Status::FailedPrecondition(
        "this collector does not accept relay snapshots");
  } else {
    // The same preamble gate a session merge applies, run before any epoch
    // state is decoded; structural validation happens at fold time.
    Result<api::SessionSnapshotConfig> config =
        api::DecodeSessionSnapshotConfig(snap.value().snapshot_bytes);
    refusal = config.ok()
                  ? api::CheckSessionSnapshotCompatible(config.value(), expected_)
                  : config.status();
  }
  if (!refusal.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.snapshots_refused;
    }
    if (metrics_.enabled()) metrics_.snapshots_refused->Increment();
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kSnapshotRefuse,
                               snap.ok() ? snap.value().node : 0);
    }
    QueueMessage(conn, MessageType::kError, EncodeError(refusal));
    CloseAfterFlush(loop, conn);
    return false;
  }
  const uint64_t node = snap.value().node;
  const uint64_t seq = snap.value().seq;
  bool fresh;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PendingSnapshot& entry = relay_snapshots_[node];
    // Strictly-higher seq wins. A retry of the current seq (or an older
    // one) is acknowledged — the snapshot is cumulative, so the ack is
    // safe — but counts as stale, not accepted: it replaced nothing.
    fresh = entry.bytes.empty() || seq > entry.seq;
    if (fresh) {
      entry.seq = seq;
      entry.bytes = std::move(snap.value().snapshot_bytes);
      ++stats_.snapshots_accepted;
    } else {
      ++stats_.snapshots_stale;
    }
  }
  if (metrics_.enabled()) {
    (fresh ? metrics_.snapshots_accepted : metrics_.snapshots_stale)
        ->Increment();
  }
  if (fresh && options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kSnapshotAccept, node, seq);
  }
  SnapshotOkMessage ok;
  ok.node = node;
  ok.seq = seq;
  QueueMessage(conn, MessageType::kSnapshotOk, EncodeSnapshotOk(ok));
  FlushConn(loop, conn);
  return !conn->dead;
}

void ReportServer::HandleConnFailure(Loop& loop,
                                     const std::shared_ptr<Conn>& conn,
                                     bool clean_eof, bool reaped) {
  // The slow-loris defense actually engaging — a signal worth watching on
  // a deployed edge.
  if (reaped && metrics_.enabled()) metrics_.slow_loris_reaped->Increment();
  const size_t had_channels = AbandonConnChannels(conn);
  bool count = false;
  if (conn->phase == ReadPhase::kPayload) {
    // Mid-payload loss: the message boundary is gone for good.
    count = true;
  } else if (!clean_eof) {
    // A drain-stop wakes idle connections by shutting their sockets down;
    // that read failure is bookkeeping, not a protocol error. A failure
    // with shards open is the peer's loss (abandonment), not bad framing.
    count = had_channels == 0 && !Stopping();
  }
  if (count) CountProtocolError();
  DestroyConn(loop, conn);
}

void ReportServer::PoisonConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                              const Status& verdict, bool count_always) {
  QueueMessage(conn, MessageType::kError, EncodeError(verdict));
  const size_t had_channels = AbandonConnChannels(conn);
  if (count_always || had_channels == 0) CountProtocolError();
  CloseAfterFlush(loop, conn);
}

size_t ReportServer::AbandonConnChannels(const std::shared_ptr<Conn>& conn) {
  std::vector<ChannelState> doomed;
  size_t total;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    total = conn->channels.size();
    for (auto it = conn->channels.begin(); it != conn->channels.end();) {
      // A close in flight belongs to its strand and completes there; only
      // channels still streaming are abandoned.
      if (it->second.closing) {
        ++it;
        continue;
      }
      doomed.push_back(it->second);
      it = conn->channels.erase(it);
    }
  }
  // An aborted upload contributes nothing, even if it stopped on a frame
  // boundary: drop the shard and release its ordinal.
  for (const ChannelState& state : doomed) {
    if (options_.wal != nullptr) options_.wal->OnShardAbandon(state.shard);
    (void)session_->AbandonShard(state.shard);
    scheduler_.Finish(state.ordinal);
    CountAbandoned();
  }
  return total;
}

void ReportServer::DestroyConn(Loop& loop,
                               const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    conn->dead = true;
  }
  const int fd = conn->socket.fd();
  (void)loop.poller.Remove(fd);
  loop.conns.erase(fd);
  {
    // Unregister before the fd closes — Stop can never shut down a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.erase(fd);
  }
  conn->socket.Close();
}

bool ReportServer::SendQueued(Conn& conn) {
  while (conn.outbuf_sent < conn.outbuf.size()) {
    Result<size_t> sent =
        conn.socket.SendSome(conn.outbuf.data() + conn.outbuf_sent,
                             conn.outbuf.size() - conn.outbuf_sent);
    if (!sent.ok()) return false;
    if (sent.value() == 0) break;  // kernel buffer full
    conn.outbuf_sent += sent.value();
  }
  if (conn.outbuf_sent == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outbuf_sent = 0;
  } else if (conn.outbuf_sent > kOutbufCompactBytes) {
    conn.outbuf.erase(0, conn.outbuf_sent);
    conn.outbuf_sent = 0;
  }
  return true;
}

void ReportServer::FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  bool destroy = false;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    // A send error means the peer is gone: nothing further to say.
    destroy = !SendQueued(*conn);
    if (!destroy) {
      const bool pending = conn->outbuf_sent < conn->outbuf.size();
      if (pending != conn->want_write) {
        conn->want_write = pending;
        (void)loop.poller.Update(conn->socket.fd(), !conn->reads_closed,
                                 pending);
      }
      if (!pending && conn->close_after_flush) destroy = true;
    }
  }
  if (destroy) {
    // Defensive: a send-error teardown may still hold streaming channels
    // (e.g. a HELLO_OK that could not be delivered).
    AbandonConnChannels(conn);
    DestroyConn(loop, conn);
  }
}

void ReportServer::FlushUnlessAVerdictWill(Loop& loop,
                                           const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->outbuf.empty()) return;
    for (const auto& [channel, state] : conn->channels) {
      if (state.closing) return;  // its strand sends the outbuf too
    }
  }
  FlushConn(loop, conn);
}

void ReportServer::CloseAfterFlush(Loop& loop,
                                   const std::shared_ptr<Conn>& conn) {
  conn->reads_closed = true;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    if (conn->dead) return;
    conn->close_after_flush = true;
    // Drop read interest: with level triggering, unread client bytes would
    // otherwise spin the loop until the flush finishes.
    (void)loop.poller.Update(conn->socket.fd(), false, conn->want_write);
  }
  // Bound the goodbye even when the idle timer is off (see kCloseFlushGraceMs).
  ArmDeadline(conn);
  FlushConn(loop, conn);
}

void ReportServer::QueueMessage(const std::shared_ptr<Conn>& conn,
                                MessageType type,
                                const std::string& payload) {
  std::string wire;
  if (!AppendMessage(type, payload, &wire).ok()) return;
  std::lock_guard<std::mutex> conn_lock(conn->mutex);
  if (conn->dead) return;
  conn->outbuf.append(wire);
}

// --- merge verdicts and epochs ---------------------------------------------

void ReportServer::CloseOnStrand(const std::shared_ptr<Conn>& conn,
                                 uint32_t channel, const ChannelState& state) {
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kMergeEnter, state.ordinal);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++closes_in_flight_;
  }
  obs::Histogram* const wait_us = metrics_.merge_barrier_wait_us;
  const uint64_t received_ns = wait_us != nullptr ? obs::SteadyNowNs() : 0;
  const size_t shard = state.shard;
  const uint64_t ordinal = state.ordinal;
  auto start = [this, shard, wait_us, received_ns] {
    if (wait_us != nullptr) {
      wait_us->Observe((obs::SteadyNowNs() - received_ns) / 1000);
    }
    if (hard_stop_) {
      if (options_.wal != nullptr) options_.wal->OnShardAbandon(shard);
      return Status::FailedPrecondition("collector is shutting down");
    }
    if (options_.wal != nullptr) options_.wal->OnShardClose(shard);
    return Status::OK();
  };
  auto done = [this, conn, channel, ordinal](
                  const Status& closed,
                  const stream::ShardIngester::Stats& stats) {
    // The ordinal is free before the reporter can learn of its verdict.
    scheduler_.Finish(ordinal);
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kMergeExit, ordinal,
                               closed.ok() ? 0 : 1);
    }
    DeliverVerdict(conn, channel, closed, stats);
    // Last: once the count drops, Stop may return and the server go away.
    std::lock_guard<std::mutex> lock(mutex_);
    --closes_in_flight_;
    closes_cv_.notify_all();
  };
  const Status queued = session_->CloseShardAsync(shard, start, done);
  // Unreachable while only the owning loop closes its channels' shards;
  // answered anyway so the ordinal and the reporter are not left waiting.
  if (!queued.ok()) done(queued, stream::ShardIngester::Stats());
}

void ReportServer::DeliverVerdict(const std::shared_ptr<Conn>& conn,
                                  uint32_t channel, const Status& closed,
                                  const stream::ShardIngester::Stats& stats) {
  ShardClosedMessage reply;
  reply.channel = channel;
  reply.code = static_cast<uint8_t>(closed.code());
  reply.message = closed.message();
  reply.stats = stats;
  bool draining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed.ok()) {
      ++stats_.shards_merged;
    } else {
      ++stats_.shards_discarded;
    }
    draining = stop_accepting_;
  }
  if (metrics_.enabled()) {
    (closed.ok() ? metrics_.shards_merged : metrics_.shards_discarded)
        ->Increment();
  }
  std::string wire;
  const bool encoded = AppendMessage(MessageType::kShardClosed,
                                     EncodeShardClosed(reply), &wire)
                           .ok();
  bool hand_to_loop;
  {
    std::lock_guard<std::mutex> conn_lock(conn->mutex);
    conn->channels.erase(channel);
    if (conn->dead || !encoded) return;
    // During a drain, a connection whose last shard just closed has
    // nothing left to say once the reply flushes: the loop tears it down.
    hand_to_loop = draining && conn->channels.empty();
    if (hand_to_loop) conn->close_after_flush = true;
    // Unless the loop is waiting for the socket to drain, the verdict —
    // behind whatever the loop queued (a fresh HELLO's HELLO_OK) — goes
    // straight onto the socket from this strand. A full socket buffer or a
    // dead peer leaves the rest to the loop's flush, which handles both.
    conn->outbuf.append(wire);
    if (!conn->want_write) (void)SendQueued(*conn);
    if (!conn->outbuf.empty()) hand_to_loop = true;
    if (hand_to_loop) {
      conn->verdict_queued = true;
    } else {
      conn->verdict_sent = true;
    }
  }
  if (hand_to_loop) {
    // Only the owning loop manages write interest and teardown.
    Loop& loop = *loops_[conn->loop];
    {
      std::lock_guard<std::mutex> loop_lock(loop.mutex);
      loop.flush_inbox.push_back(conn);
    }
    WakeLoop(conn->loop);
  }
}

Status ReportServer::AdvanceEpoch() {
  return scheduler_.AdvanceEpoch([this] {
    // A new epoch has no pre-crash shards. A replayed shard whose reporter
    // never came back is abandoned, or its open session shard would refuse
    // every advance. An abandon waits on an ingest strand, so it runs
    // without mutex_: a close finishing on a pool worker takes that lock.
    std::unordered_map<uint64_t, ResumedShard> unclaimed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      unclaimed.swap(resume_shards_);
    }
    for (const auto& [ordinal, resumed] : unclaimed) {
      if (options_.wal != nullptr) options_.wal->OnShardAbandon(resumed.shard);
      (void)session_->AbandonShard(resumed.shard);
      CountAbandoned();
    }
    return session_->AdvanceEpoch();
  });
}

void ReportServer::CountProtocolError() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.protocol_errors;
  }
  if (metrics_.enabled()) metrics_.protocol_errors->Increment();
}

void ReportServer::CountAbandoned() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.shards_abandoned;
  }
  if (metrics_.enabled()) metrics_.shards_abandoned->Increment();
}

}  // namespace ldp::net
