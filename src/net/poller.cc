#include "net/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ldp::net {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status Control(int epoll_fd, int op, int fd, bool want_read,
               bool want_write) {
  epoll_event event{};
  if (want_read) event.events |= EPOLLIN;
  if (want_write) event.events |= EPOLLOUT;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd, op, fd, &event) != 0) {
    return ErrnoStatus(op == EPOLL_CTL_ADD ? "epoll_ctl(ADD)"
                                           : "epoll_ctl(MOD)");
  }
  return Status::OK();
}

}  // namespace

Result<Poller> Poller::Create() {
  Poller poller;
  poller.epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (poller.epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  return poller;
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Poller::Poller(Poller&& other) noexcept
    : epoll_fd_(std::exchange(other.epoll_fd_, -1)) {}

Poller& Poller::operator=(Poller&& other) noexcept {
  if (this != &other) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = std::exchange(other.epoll_fd_, -1);
  }
  return *this;
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  return Control(epoll_fd_, EPOLL_CTL_ADD, fd, want_read, want_write);
}

Status Poller::Update(int fd, bool want_read, bool want_write) {
  return Control(epoll_fd_, EPOLL_CTL_MOD, fd, want_read, want_write);
}

Status Poller::Remove(int fd) {
  epoll_event event{};
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &event) != 0 &&
      errno != ENOENT && errno != EBADF) {
    return ErrnoStatus("epoll_ctl(DEL)");
  }
  return Status::OK();
}

Status Poller::Wait(int timeout_ms, std::vector<PollerEvent>* events) {
  events->clear();
  epoll_event ready[256];
  int count;
  do {
    count = ::epoll_wait(epoll_fd_, ready, 256, timeout_ms);
  } while (count < 0 && errno == EINTR);
  if (count < 0) return ErrnoStatus("epoll_wait");
  events->reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    PollerEvent event;
    event.fd = ready[i].data.fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return Status::OK();
}

}  // namespace ldp::net
