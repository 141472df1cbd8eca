// CollectorClient: the reporter's side of the collector protocol
// (net/protocol.h). One connection multiplexes many logical shards:
// Connect negotiates the first one with a round trip, OpenShard stages a
// fresh HELLO for each further one and returns at once, Send ships raw
// report-stream frame bytes in bounded DATA messages, and CloseShard
// declares end-of-stream and returns the server's merge verdict with exact
// ingest statistics. Staged control messages leave in the same write as
// the next DATA: a small shard's HELLO, DATA and CLOSE_SHARD are one send.
// Shards close independently, so SHARD_CLOSED replies can arrive out of
// order relative to traffic on other channels — the client matches
// replies by channel and stashes early arrivals, so callers never see the
// reordering.
//
// Flow control is the socket's: Send blocks once the kernel send buffer is
// full, and the collector drains it no faster than ServerSession::Feed
// accepts bytes — a reporter on a fast link cannot buffer the collector
// into the ground. DATA gets no reply; every reply is read through one
// function (ReadReply).
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

  /// Opens one more shard over this connection and returns its channel id
  /// at once: the HELLO is fresh (no durable bytes to resume) and is staged
  /// to leave with the connection's next write, without waiting for the
  /// collector's answer. Any number of shards may be open concurrently.
  /// Fails here only on a bad reporter identity; a refusal (schema
  /// mismatch, a spent budget, an ordinal with durable bytes) surfaces at
  /// a later Send or CloseShardBegin that fails, or at AwaitShardClosed,
  /// and the collector closes the connection, abandoning its other
  /// channels. Resumable opens go through Connect.
  Result<uint32_t> OpenShard(const stream::StreamHeader& header,
                             uint64_t ordinal);

  /// Stages raw frame bytes (stream::AppendFrame output) for `channel`'s
  /// shard, flushing full DATA messages as its buffer fills. On failure
  /// the returned status carries the server's ERROR verdict when one is
  /// pending (e.g. this client's stream poisoned its shard, or a pipelined
  /// HELLO was refused).
  Status Send(uint32_t channel, const char* data, size_t size);

  /// Flushes `channel` and declares end-of-stream, without waiting for the
  /// verdict — several closes can be pipelined, then awaited in any order.
  Status CloseShardBegin(uint32_t channel);

  /// Waits for `channel`'s merge verdict (CloseShardBegin first). The
  /// channel id is free for reuse afterwards. Once the collector has sent
  /// an ERROR (or the connection failed), every later wait returns it.
  Result<ShardCloseSummary> AwaitShardClosed(uint32_t channel);

  /// CloseShardBegin + AwaitShardClosed.
  Result<ShardCloseSummary> CloseShard(uint32_t channel);

  /// Post-header bytes already durable server-side for `channel`'s shard
  /// (WAL resume handshake, Connect's shard only); 0 for a fresh shard,
  /// which every OpenShard channel is.
  uint64_t resume_offset(uint32_t channel) const;

  /// Channels currently open (closing ones included until awaited).
  size_t open_shards() const { return channels_.size(); }

  /// The epoch named by the last HELLO_OK read: Connect's, or a pipelined
  /// open's once a later Send, close or await has read its reply.
  uint32_t epoch() const { return epoch_; }

 private:
  /// One open (or closing) shard multiplexed over the connection.
  struct ShardChannel {
    uint64_t resume_offset = 0;
    std::string staged;
    bool admitted = false;  ///< HELLO_OK read.
    bool closing = false;   ///< CLOSE_SHARD sent, verdict not yet read.
  };

  explicit CollectorClient(Socket socket, CollectorClientOptions options)
      : socket_(std::move(socket)), options_(options) {}

  /// Stages a HELLO for (`channel`, `ordinal`) in the outbox and registers
  /// the channel as awaiting its HELLO_OK.
  Status StageHello(const stream::StreamHeader& header, uint64_t ordinal,
                    uint32_t channel, bool fresh);

  /// Stages `channel`'s buffered bytes as one DATA message (and, with
  /// `close`, its CLOSE_SHARD), then sends the whole outbox.
  Status Flush(uint32_t channel, ShardChannel& state, bool close);

  /// Sends the outbox in one write. On failure, returns the collector's
  /// pending ERROR when there is one.
  Status Transmit();

  /// Reads one reply: a HELLO_OK admits its channel, a SHARD_CLOSED is
  /// stashed for AwaitShardClosed, an ERROR (or a transport failure)
  /// breaks the connection and is returned, now and by every later call.
  Status ReadReply();

  /// RecvMessage through the inbox: one recv often carries several replies
  /// (a fresh HELLO's HELLO_OK and its shard's verdict leave together).
  Result<bool> RecvReply(MessageType* type, std::string* payload);

  /// Receives until `want` unread bytes are buffered in the inbox. False
  /// on a clean close with nothing buffered, as Socket::RecvAll.
  Result<bool> RecvBuffered(size_t want);

  Socket socket_;
  CollectorClientOptions options_;
  std::map<uint32_t, ShardChannel> channels_;
  /// SHARD_CLOSED payloads read but not yet claimed by AwaitShardClosed.
  std::map<uint32_t, std::string> closed_payloads_;
  /// Wire bytes staged for the next write.
  std::string outbox_;
  /// Received bytes; those before inbox_read_ are consumed.
  std::string inbox_;
  size_t inbox_read_ = 0;
  static constexpr size_t kRecvChunkBytes = 512;
  /// The collector's ERROR, or the transport failure, that ended the
  /// connection; OK while it is usable.
  Status broken_;
  uint32_t next_channel_ = 0;
  uint32_t epoch_ = 0;
};

}  // namespace ldp::net

#endif  // LDP_NET_CLIENT_H_
