// CollectorClient: the reporter's side of the collector protocol
// (net/protocol.h). One connection now multiplexes many logical shards:
// OpenShard performs the HELLO/schema negotiation for one channel, Send
// ships raw report-stream frame bytes in bounded DATA messages, and
// CloseShard declares end-of-stream and returns the server's merge verdict
// with exact ingest statistics. Because the server merges in ordinal
// order, SHARD_CLOSED replies can arrive out of order relative to traffic
// on other channels — the client matches replies by channel and stashes
// early arrivals, so callers never see the reordering.
//
// Flow control is the socket's: Send blocks once the kernel send buffer is
// full, and the collector drains it no faster than ServerSession::Feed
// accepts bytes — a reporter on a fast link cannot buffer the collector
// into the ground. DATA gets no reply; every reply is read through one
// loop (AwaitReply).
//
// Blocking I/O with an optional idle timeout; thread-compatible (one
// client per thread, like ClientSession's Rng discipline).

#ifndef LDP_NET_CLIENT_H_
#define LDP_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "net/protocol.h"
#include "net/socket.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/result.h"

namespace ldp::net {

struct CollectorClientOptions {
  /// Bound on every socket send/recv (0 = wait forever).
  int idle_timeout_ms = 30000;
  /// Send buffer high-water mark: Send flushes a DATA message whenever the
  /// staged bytes reach this size (and CloseShard flushes the remainder).
  /// Clamped to at least 1 at Connect.
  size_t flush_bytes = 256 * 1024;
  /// Reporter identity for authenticated campaigns. When `campaign_key` is
  /// non-empty every HELLO carries `reporter_id` plus an HMAC-SHA256 tag
  /// binding (key, id, channel, epoch, stream header); a keyed collector
  /// refuses anything else. When empty the HELLO is anonymous, which only
  /// a keyless collector accepts.
  std::string reporter_id;
  std::string campaign_key;
  /// The epoch this connection's first HELLO signs for. Authenticated
  /// tags are epoch-bound, so a reporter joining (or reconnecting) after
  /// the operator advanced the campaign past epoch 0 must pass the current
  /// epoch here; later HELLOs on the same connection sign for the epoch
  /// the last HELLO_OK named. A stale epoch is refused with an ERROR that
  /// names the collector's current one. Ignored for unauthenticated
  /// campaigns.
  uint32_t epoch = 0;
};

/// The server's verdict on one closed shard.
struct ShardCloseSummary {
  /// OK when the shard merged into the epoch; otherwise why it was
  /// discarded (framing poison, rejection budget, shutdown).
  Status status;
  /// Exact server-side ingest statistics for the shard.
  stream::ShardIngester::Stats stats;
};

class CollectorClient {
 public:
  /// Connects to `endpoint` and negotiates shard `ordinal` on channel 0,
  /// speaking `header`'s protocol. Fails with the server's refusal (schema
  /// hash / ε / kind mismatch) before any report is sent.
  static Result<CollectorClient> Connect(const Endpoint& endpoint,
                                         const stream::StreamHeader& header,
                                         uint64_t ordinal,
                                         CollectorClientOptions options = {});

  /// Negotiates one more shard over this connection and returns its
  /// channel id. Any number of shards may be open concurrently.
  Result<uint32_t> OpenShard(const stream::StreamHeader& header,
                             uint64_t ordinal);

  /// Stages raw frame bytes (stream::AppendFrame output) for `channel`'s
  /// shard, flushing full DATA messages as its buffer fills. On failure
  /// the returned status carries the server's ERROR verdict when one is
  /// pending (e.g. this client's stream poisoned its shard).
  Status Send(uint32_t channel, const char* data, size_t size);

  /// Flushes `channel` and declares end-of-stream, without waiting for the
  /// verdict — several closes can be pipelined, then awaited in any order.
  Status CloseShardBegin(uint32_t channel);

  /// Waits for `channel`'s merge verdict (CloseShardBegin first). The
  /// channel id is free for reuse afterwards.
  Result<ShardCloseSummary> AwaitShardClosed(uint32_t channel);

  /// CloseShardBegin + AwaitShardClosed.
  Result<ShardCloseSummary> CloseShard(uint32_t channel);

  /// Post-header bytes already durable server-side for `channel`'s shard
  /// (WAL resume handshake); 0 for a fresh shard.
  uint64_t resume_offset(uint32_t channel) const;

  /// Channels currently open (closing ones included until awaited).
  size_t open_shards() const { return channels_.size(); }

  /// The epoch the most recently opened shard folds into.
  uint32_t epoch() const { return epoch_; }

 private:
  /// One open (or closing) shard multiplexed over the connection.
  struct ShardChannel {
    uint64_t resume_offset = 0;
    std::string staged;
    bool closing = false;  ///< CLOSE_SHARD sent, verdict not yet read.
  };

  explicit CollectorClient(Socket socket, CollectorClientOptions options)
      : socket_(std::move(socket)), options_(options) {}

  /// Sends HELLO for (`channel`, `ordinal`) and consumes the HELLO_OK /
  /// ERROR reply, registering the channel on success.
  Status Negotiate(const stream::StreamHeader& header, uint64_t ordinal,
                   uint32_t channel);

  /// Ships `channel`'s staged buffer as one DATA message.
  Status Flush(uint32_t channel, ShardChannel& state);

  /// The one reply loop: reads until a message of `expected` type arrives
  /// (for kShardClosed, one whose channel is `want_channel`) and returns
  /// its payload. Other channels' SHARD_CLOSEDs are stashed; ERROR becomes
  /// the returned status.
  Result<std::string> AwaitReply(MessageType expected, uint32_t want_channel);

  Socket socket_;
  CollectorClientOptions options_;
  std::map<uint32_t, ShardChannel> channels_;
  /// SHARD_CLOSED payloads that arrived while awaiting something else.
  std::map<uint32_t, std::string> closed_payloads_;
  uint32_t next_channel_ = 0;
  uint32_t epoch_ = 0;
};

}  // namespace ldp::net

#endif  // LDP_NET_CLIENT_H_
