// RelayForwarder: the downstream half of a two-tier collection campaign.
//
// An edge collector (ldp_serve --relay-to) runs one forwarder next to its
// ReportServer. On a fixed cadence — and once more, synchronously, at
// drain — the forwarder serializes the node's whole ServerSession
// (cumulative: every epoch, all reports so far) and ships it upstream as
// one SNAPSHOT message (net/protocol.h), tagged with the node id and a
// monotone sequence number. The upstream keeps only the highest sequence
// per node and folds the survivors at its own drain
// (ReportServer::FoldRelaySnapshots), so:
//
//   - retries after a lost ack, duplicate deliveries, and upstream
//     restarts are all idempotent — the latest cumulative snapshot
//     subsumes every earlier one;
//   - the sums are exact, so a two-tier campaign reproduces the
//     tree-shaped file-based run (`ldp_aggregate edge0.ldpe edge1.ldpe`)
//     bit for bit.
//
// A dead upstream costs nothing but retries: the forwarder reconnects
// with exponential backoff and the next cycle ships a snapshot that
// covers everything the failed one did.

#ifndef LDP_RELAY_FORWARDER_H_
#define LDP_RELAY_FORWARDER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/server_session.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::obs {
class EventJournal;
}  // namespace ldp::obs

namespace ldp::relay {

struct RelayForwarderOptions {
  /// This node's id at the upstream (must be unique per edge: the
  /// upstream keeps one snapshot per node).
  uint64_t node_id = 0;
  /// Periodic forwarding cadence. A cycle whose session is unchanged since
  /// the last acked snapshot sends nothing.
  int interval_ms = 1000;
  /// First reconnect/retry delay; doubles per failure up to the max.
  int retry_backoff_ms = 200;
  int max_backoff_ms = 5000;
  /// Per-attempt bound on upstream socket I/O (0 = wait forever).
  int idle_timeout_ms = 30000;
  /// Bound on the synchronous final Flush — how long a draining edge keeps
  /// retrying a dead upstream before giving up.
  int flush_timeout_ms = 60000;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventJournal* journal = nullptr;
};

struct RelayForwarderStats {
  uint64_t snapshots_forwarded = 0;  ///< SNAPSHOTs acked upstream.
  uint64_t forward_failures = 0;     ///< Failed attempts (pre-ack).
  uint64_t reconnects = 0;           ///< Upstream connections established.
  uint64_t bytes_forwarded = 0;      ///< Acked snapshot payload bytes.
};

class RelayForwarder {
 public:
  /// Starts the background forwarding thread. `session` must outlive the
  /// forwarder and be the same session the node's ReportServer feeds.
  static Result<std::unique_ptr<RelayForwarder>> Start(
      api::ServerSession* session, const net::Endpoint& upstream,
      RelayForwarderOptions options);

  /// Stop(false).
  ~RelayForwarder();

  RelayForwarder(const RelayForwarder&) = delete;
  RelayForwarder& operator=(const RelayForwarder&) = delete;

  /// Ships the current snapshot now, synchronously, retrying (with
  /// backoff, reconnecting as needed) until acked or flush_timeout_ms
  /// elapses. Call after the local server drained: the final cumulative
  /// snapshot the upstream folds.
  Status Flush();

  /// Stops the background thread; with `final_flush`, runs one Flush()
  /// first so the upstream holds everything this node collected.
  /// Idempotent. Returns the flush verdict (OK when final_flush is off).
  Status Stop(bool final_flush);

  RelayForwarderStats stats() const;

 private:
  RelayForwarder(api::ServerSession* session, net::Endpoint upstream,
                 RelayForwarderOptions options);

  void Run();

  /// One forwarding attempt over the current connection (connecting if
  /// needed). On failure the connection is dropped so the next attempt
  /// redials.
  Status SendOnce(const std::string& snapshot_bytes, uint64_t seq);

  /// Snapshot-and-send with up to `attempts` tries. Skips (returning OK)
  /// when the session is unchanged since the last ack, unless `force`.
  Status ForwardCycle(bool force, int attempts, int deadline_ms);

  api::ServerSession* session_;
  const net::Endpoint upstream_;
  const RelayForwarderOptions options_;
  obs::RelayMetrics metrics_;  // all-null when options_.metrics is null

  /// Serializes whole forwarding cycles: the background thread and a
  /// caller's Flush never interleave on the connection.
  std::mutex cycle_mutex_;
  net::Socket socket_;       // guarded by cycle_mutex_
  std::string last_acked_;   // last snapshot bytes the upstream acked
  uint64_t next_seq_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::thread thread_;
  RelayForwarderStats stats_;
  bool stop_ = false;
  bool stopped_ = false;
};

}  // namespace ldp::relay

#endif  // LDP_RELAY_FORWARDER_H_
