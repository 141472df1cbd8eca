// The collector's connection protocol: a tiny length-prefixed control
// channel multiplexed with raw report-stream bytes, many logical shards
// per connection.
//
// Every message on the wire is
//
//   u8 type, u32 payload_length (little-endian), payload
//
// and a conversation is:
//
//   client                              server
//   ------                              ------
//   HELLO {version, channel, flags,  -> validate header, open shard
//          ordinal, header}          <- HELLO_OK {channel, shard, epoch}
//                                       | ERROR
//   DATA {channel, raw frame bytes}  (any chunking; fed straight into
//                            ServerSession::Feed — the report-stream
//                            framing below is untouched)      [repeated]
//   CLOSE_SHARD {channel}            -> drain, merge in ordinal order
//                                    <- SHARD_CLOSED {channel, status,
//                                                     stats}
//   ... another HELLO (a new channel/shard), or EOF.
//
// A `channel` is the client-chosen id multiplexing several concurrently
// open shards over one connection; ids are free for reuse once their
// SHARD_CLOSED arrives. Because merges wait for the ordinal barrier, a
// SHARD_CLOSED may arrive *after* replies to later requests on the same
// connection — clients must match replies by channel, not by order.
//
// No peer can advance the collection epoch: that is the operator's call
// (ReportServer::AdvanceEpoch), and the retired ADVANCE_EPOCH (0x04) and
// EPOCH_ADVANCED (0x12) types are unknown types like any other.
//
// The HELLO's flags word is always 0. DATA gets no reply: flow control is
// the socket's own. A reporter's send blocks once the kernel buffer fills,
// and the collector reads a connection's next message only after
// ServerSession::Feed returns, which blocks at the per-shard pending-byte
// bound.
//
// The HELLO payload carries the exact report-stream header
// (stream/report_stream.h) the subsequent DATA bytes would have started
// with on disk, so the server rejects a mismatched client (schema hash, ε,
// kinds) before a single report is decoded, and the ingester still consumes
// a byte-identical stream. `ordinal` is the client's shard index in its
// campaign: the server merges closed shards in ascending ordinal order,
// which is what makes a networked run bit-identical to the file-based
// `ldp_aggregate shard-0 shard-1 ...` run no matter which connection
// finishes first.
//
// The codecs are pure encode/decode over strings, so the framing is
// unit-testable without sockets; only SendMessage/RecvMessage touch one.

#ifndef LDP_NET_PROTOCOL_H_
#define LDP_NET_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "net/socket.h"
#include "stream/shard_ingester.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::net {

/// The protocol version, the only one spoken. v3 added the reporter
/// identity to the HELLO: a reporter id plus an HMAC-SHA256 tag binding the
/// id to the campaign key, stream header, channel, and epoch.
inline constexpr uint16_t kProtocolVersion = 3;

/// Upper bound on a reporter id carried in a v3 HELLO. Ids are opaque
/// client-chosen bytes; the bound keeps a hostile HELLO from smuggling a
/// huge allocation through the id length field.
inline constexpr size_t kMaxReporterIdBytes = 128;

/// Size of the raw HMAC-SHA256 tag in a v3 HELLO.
inline constexpr size_t kHelloAuthTagBytes = 32;

/// Every DATA payload starts with the u32 channel id of the shard the
/// frame bytes belong to.
inline constexpr size_t kDataChannelPrefixBytes = 4;

/// u8 type + u32 payload length.
inline constexpr size_t kMessageHeaderBytes = 5;

/// Upper bound on one message payload. DATA chunking keeps payloads small;
/// anything above this is a framing attack (e.g. a hostile length prefix
/// trying to make the server buffer 4 GiB) and poisons the connection.
inline constexpr uint32_t kMaxMessagePayload = 4u << 20;

enum class MessageType : uint8_t {
  // client -> server
  kHello = 0x01,
  kData = 0x02,
  kCloseShard = 0x03,
  kSnapshot = 0x05,
  // server -> client
  kHelloOk = 0x10,
  kShardClosed = 0x11,
  kError = 0x13,
  kSnapshotOk = 0x14,
};

/// True for the message types defined above.
bool IsKnownMessageType(uint8_t type);

/// The fixed message prefix.
struct MessageHeader {
  MessageType type = MessageType::kError;
  uint32_t payload_length = 0;
};

/// Serialises one message (header + payload) onto `out`. Fails on payloads
/// above kMaxMessagePayload.
Status AppendMessage(MessageType type, const std::string& payload,
                     std::string* out);

/// Parses and validates a message prefix: known type, length within bound.
/// Requires exactly kMessageHeaderBytes.
Result<MessageHeader> DecodeMessageHeader(const char* data, size_t size);

/// Blocking whole-message I/O over a connected socket. SendMessage frames
/// `payload` as one `type` message. RecvMessage reads one message into
/// `*type`/`*payload` and returns false on a clean peer close at a message
/// boundary, like Socket::RecvAll; `deadline_ms` bounds the prefix read and
/// the payload read each (0 = only the socket's idle timeout).
Status SendMessage(Socket* socket, MessageType type,
                   const std::string& payload);
Result<bool> RecvMessage(Socket* socket, MessageType* type,
                         std::string* payload, int deadline_ms = 0);

// --- payloads --------------------------------------------------------------

/// HELLO: the client introduces one shard-to-be on a fresh channel.
///
/// Layout: u16 version, u32 channel, u32 flags (always 0; a nonzero word
/// is refused), u64 ordinal, then u16 id length, the id bytes, the raw
/// 32-byte tag, then the stream header. An anonymous HELLO (for a keyless
/// collector) carries id length 0 and no tag.
struct HelloMessage {
  uint16_t version = kProtocolVersion;
  /// Client-chosen id multiplexing this shard over the connection; must not
  /// collide with a channel still open on the same connection. Single-shard
  /// clients use 0.
  uint32_t channel = 0;
  /// The shard's merge position (see file comment). Clients streaming a
  /// single ad-hoc shard use 0.
  uint64_t ordinal = 0;
  /// The authenticated reporter identity (up to kMaxReporterIdBytes opaque
  /// bytes) the server keys this shard's privacy ledger by; empty when
  /// anonymous.
  std::string reporter_id;
  /// ComputeHelloTag(campaign key, ...) — raw kHelloAuthTagBytes; present
  /// exactly when reporter_id is non-empty.
  std::string auth_tag;
  /// The serialized stream::StreamHeader the shard's bytes start with.
  std::string header_bytes;
};

std::string EncodeHello(const HelloMessage& hello);
Result<HelloMessage> DecodeHello(const std::string& payload);

/// The v3 HELLO authentication tag: HMAC-SHA256 over a canonical encoding
/// of (reporter id, channel, epoch, stream header) under the campaign key.
/// Binding the channel and the server's current epoch means a captured tag
/// cannot be replayed onto another channel or into a later epoch; binding
/// the header means the tag vouches for the exact schema/ε the reporter
/// streams under.
std::string ComputeHelloTag(const std::string& campaign_key,
                            const std::string& reporter_id, uint32_t channel,
                            uint32_t epoch, const std::string& header_bytes);

/// HELLO_OK: the server accepted the shard.
struct HelloOkMessage {
  uint32_t channel = 0;  ///< Echo of the HELLO's channel id.
  uint64_t shard = 0;    ///< Server-side shard id (diagnostic).
  uint32_t epoch = 0;    ///< Epoch the shard will fold into.
  /// Resumable-shard handshake: post-header stream bytes of this ordinal
  /// already durable server-side (WAL replay after a crash). The reporter
  /// skips that many bytes instead of re-sending them; 0 for a fresh shard.
  uint64_t resume_offset = 0;
};

std::string EncodeHelloOk(const HelloOkMessage& ok);
Result<HelloOkMessage> DecodeHelloOk(const std::string& payload);

/// CLOSE_SHARD: the client is done streaming one channel's shard.
struct CloseShardMessage {
  uint32_t channel = 0;
};

std::string EncodeCloseShard(const CloseShardMessage& close);
Result<CloseShardMessage> DecodeCloseShard(const std::string& payload);

/// SNAPSHOT: a relay node ships its whole session snapshot upstream. The
/// snapshot is cumulative (every epoch, all reports so far), so a node may
/// re-send at any cadence: the upstream keeps only the highest `seq` per
/// node and folds the survivors in ascending node-id order at drain time —
/// retries and restarts are idempotent by construction.
struct SnapshotMessage {
  uint16_t version = kProtocolVersion;
  uint64_t node = 0;   ///< The sender's node id (its merge position).
  uint64_t seq = 0;    ///< Monotone per node; highest wins upstream.
  /// Sender's current epoch at snapshot time. Informational: the
  /// collector ignores it (the snapshot carries its own epochs).
  uint32_t epoch = 0;
  /// api::ServerSession::Snapshot() bytes ('LDPE'), length-prefixed on the
  /// wire so trailing garbage is detected.
  std::string snapshot_bytes;
};

std::string EncodeSnapshot(const SnapshotMessage& snapshot);
Result<SnapshotMessage> DecodeSnapshot(const std::string& payload);

/// SNAPSHOT_OK: the upstream durably holds (node, seq).
struct SnapshotOkMessage {
  uint64_t node = 0;
  uint64_t seq = 0;
};

std::string EncodeSnapshotOk(const SnapshotOkMessage& ok);
Result<SnapshotOkMessage> DecodeSnapshotOk(const std::string& payload);

/// SHARD_CLOSED: final verdict and exact ingest statistics for one shard.
struct ShardClosedMessage {
  uint32_t channel = 0;  ///< The channel the CLOSE_SHARD named.
  /// StatusCode of the close (kOk, or why the shard was discarded).
  uint8_t code = 0;
  stream::ShardIngester::Stats stats;
  std::string message;  ///< Error detail when code != 0.
};

std::string EncodeShardClosed(const ShardClosedMessage& closed);
Result<ShardClosedMessage> DecodeShardClosed(const std::string& payload);

/// ERROR: the server refuses the connection or poisons the shard.
struct ErrorMessage {
  uint8_t code = 0;  ///< StatusCode (never kOk; DecodeErrorMessage refuses 0).
  std::string message;
};

std::string EncodeError(const Status& status);
Result<ErrorMessage> DecodeErrorMessage(const std::string& payload);

/// Rebuilds a Status from a wire code + message (unknown codes collapse to
/// kInternal rather than trusting the peer).
Status StatusFromWire(uint8_t code, const std::string& message);

}  // namespace ldp::net

#endif  // LDP_NET_PROTOCOL_H_
