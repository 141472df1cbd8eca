// Readiness multiplexing for the event-driven collector edge: one Poller
// watches many descriptors and reports which are readable/writable, so a
// single thread can drive thousands of connections instead of parking one
// blocking thread per socket.
//
// A thin wrapper over epoll(7), O(1) per ready event; the collector runs on
// Linux only. Level-triggered: an fd keeps reporting ready until its buffer
// is drained, which keeps the connection state machine free of
// edge-trigger starvation bugs at the cost of one extra syscall per idle
// wake.

#ifndef LDP_NET_POLLER_H_
#define LDP_NET_POLLER_H_

#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ldp::net {

/// One readiness report from Wait.
struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// EPOLLERR/EPOLLHUP: the fd needs attention even if the caller only
  /// asked for writability. Reads still drain buffered bytes.
  bool error = false;
};

/// A level-triggered readiness set (move-only RAII over the epoll fd).
class Poller {
 public:
  static Result<Poller> Create();

  Poller() = default;
  ~Poller();
  Poller(Poller&& other) noexcept;
  Poller& operator=(Poller&& other) noexcept;
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Starts watching `fd` (must not already be watched).
  Status Add(int fd, bool want_read, bool want_write);

  /// Changes the interest set of a watched fd.
  Status Update(int fd, bool want_read, bool want_write);

  /// Stops watching `fd` (safe to call for an fd that was never added).
  Status Remove(int fd);

  /// Blocks until at least one watched fd is ready or `timeout_ms` elapses
  /// (-1 = wait forever, 0 = poll and return). Replaces `*events` with the
  /// ready set; an empty result means the timeout fired.
  Status Wait(int timeout_ms, std::vector<PollerEvent>* events);

 private:
  int epoll_fd_ = -1;
};

}  // namespace ldp::net

#endif  // LDP_NET_POLLER_H_
