#include "obs/metrics_server.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "obs/exposition.h"

namespace ldp::obs {

namespace {

/// The whole request head must arrive within this budget (RecvAll's
/// slow-loris rule): the accept loop is serial, and a per-recv timeout alone
/// lets a client trickling a byte at a time hold every other scrape.
constexpr int kRequestDeadlineMs = 5000;

/// Reads until the request-head terminator (or 4 KiB — a scrape request
/// line fits in far less) and returns the request path, or "" on anything
/// that is not a well-formed GET or misses kRequestDeadlineMs.
std::string ReadRequestPath(net::Socket& socket) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kRequestDeadlineMs);
  std::string request;
  char buffer[1024];
  while (request.size() < 4096 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const int left_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    pollfd ready{socket.fd(), POLLIN, 0};
    const int polled = left_ms > 0 ? ::poll(&ready, 1, left_ms) : 0;
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) return "";
    const ssize_t got = ::recv(socket.fd(), buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    request.append(buffer, static_cast<size_t>(got));
  }
  if (request.compare(0, 4, "GET ") != 0) return "";
  const size_t path_begin = 4;
  const size_t path_end = request.find_first_of(" \r\n", path_begin);
  if (path_end == std::string::npos) return "";
  std::string path = request.substr(path_begin, path_end - path_begin);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  return path;
}

void WriteResponse(net::Socket& socket, const char* status,
                   const char* content_type, const std::string& body) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.0 %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status, content_type, body.size());
  if (socket.SendAll(head, std::strlen(head)).ok()) {
    (void)socket.SendAll(body);
  }
}

}  // namespace

Result<std::unique_ptr<MetricsServer>> MetricsServer::Start(
    const net::Endpoint& endpoint, const MetricsRegistry* registry,
    const EventJournal* journal) {
  net::Listener listener;
  LDP_ASSIGN_OR_RETURN(listener, net::Listener::Bind(endpoint));
  return std::unique_ptr<MetricsServer>(
      new MetricsServer(std::move(listener), registry, journal));
}

MetricsServer::MetricsServer(net::Listener listener,
                             const MetricsRegistry* registry,
                             const EventJournal* journal)
    : listener_(std::move(listener)), registry_(registry), journal_(journal) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void MetricsServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Wake is sticky (the byte is never drained), so the accept loop's poll
  // returns even if it re-enters. Close only after the join: closing a
  // descriptor another thread is polling hands its number to whoever
  // opens a descriptor next.
  listener_.Wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

void MetricsServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;
    if (!accepted.value().valid()) return;  // woken for shutdown
    ServeConnection(std::move(accepted).value());
  }
}

void MetricsServer::ServeConnection(net::Socket socket) {
  // Bounds the response send; the request read has its own deadline.
  (void)socket.SetIdleTimeout(kRequestDeadlineMs);
  const std::string path = ReadRequestPath(socket);
  if (path == "/metrics") {
    WriteResponse(socket, "200 OK", "text/plain; version=0.0.4",
                  ToPrometheusText(*registry_));
  } else if (path == "/metrics.json") {
    WriteResponse(socket, "200 OK", "application/json", ToJson(*registry_));
  } else if (path == "/journal" && journal_ != nullptr) {
    WriteResponse(socket, "200 OK", "application/x-ndjson",
                  journal_->ToJsonLines());
  } else if (path == "/trace" && journal_ != nullptr) {
    WriteResponse(socket, "200 OK", "application/json",
                  journal_->ToChromeTrace());
  } else if (path == "/healthz") {
    const bool draining = draining_.load(std::memory_order_relaxed);
    WriteResponse(socket, "200 OK", "text/plain",
                  draining ? "draining\n" : "ok\n");
  } else {
    WriteResponse(socket, "404 Not Found", "text/plain", "not found\n");
  }
}

}  // namespace ldp::obs
