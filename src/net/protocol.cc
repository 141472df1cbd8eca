#include "net/protocol.h"

#include "core/wire.h"
#include "util/hmac.h"

namespace ldp::net {

namespace {

using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU64;
using internal_wire::PutU8;
using internal_wire::Reader;

// The trailing free-form field of a payload (error/detail text, header
// bytes): everything after the fixed fields.
std::string TakeRest(const std::string& payload, const Reader& reader) {
  return payload.substr(reader.cursor());
}

}  // namespace

bool IsKnownMessageType(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello:
    case MessageType::kData:
    case MessageType::kCloseShard:
    case MessageType::kSnapshot:
    case MessageType::kHelloOk:
    case MessageType::kShardClosed:
    case MessageType::kError:
    case MessageType::kSnapshotOk:
      return true;
  }
  return false;
}

Status AppendMessage(MessageType type, const std::string& payload,
                     std::string* out) {
  if (payload.size() > kMaxMessagePayload) {
    return Status::InvalidArgument("message payload exceeds bound");
  }
  PutU8(out, static_cast<uint8_t>(type));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  return Status::OK();
}

Result<MessageHeader> DecodeMessageHeader(const char* data, size_t size) {
  if (size != kMessageHeaderBytes) {
    return Status::InvalidArgument("message header must be 5 bytes");
  }
  Reader reader(data, size);
  uint8_t type = 0;
  LDP_ASSIGN_OR_RETURN(type, reader.U8());
  if (!IsKnownMessageType(type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  MessageHeader header;
  header.type = static_cast<MessageType>(type);
  LDP_ASSIGN_OR_RETURN(header.payload_length, reader.U32());
  if (header.payload_length > kMaxMessagePayload) {
    return Status::InvalidArgument("message payload length " +
                                   std::to_string(header.payload_length) +
                                   " exceeds bound");
  }
  return header;
}

Status SendMessage(Socket* socket, MessageType type,
                   const std::string& payload) {
  std::string wire;
  LDP_RETURN_IF_ERROR(AppendMessage(type, payload, &wire));
  return socket->SendAll(wire);
}

Result<bool> RecvMessage(Socket* socket, MessageType* type,
                         std::string* payload, int deadline_ms) {
  char prefix[kMessageHeaderBytes];
  Result<bool> got = socket->RecvAll(prefix, sizeof(prefix), deadline_ms);
  if (!got.ok() || !got.value()) return got;
  MessageHeader header;
  LDP_ASSIGN_OR_RETURN(header, DecodeMessageHeader(prefix, sizeof(prefix)));
  payload->assign(header.payload_length, '\0');
  if (!payload->empty()) {
    Result<bool> body =
        socket->RecvAll(payload->data(), payload->size(), deadline_ms);
    if (!body.ok()) return body.status();
    if (!body.value()) {
      return Status::IoError("peer closed the connection mid-message");
    }
  }
  *type = header.type;
  return true;
}

std::string EncodeHello(const HelloMessage& hello) {
  std::string out;
  PutU16(&out, kProtocolVersion);
  PutU32(&out, hello.channel);
  PutU32(&out, hello.fresh ? kHelloFlagFresh : 0);
  PutU64(&out, hello.ordinal);
  PutU16(&out, static_cast<uint16_t>(hello.reporter_id.size()));
  out.append(hello.reporter_id);
  out.append(hello.auth_tag);
  out.append(hello.header_bytes);
  return out;
}

Result<HelloMessage> DecodeHello(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  HelloMessage hello;
  LDP_ASSIGN_OR_RETURN(hello.version, reader.U16());
  if (hello.version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(hello.version));
  }
  LDP_ASSIGN_OR_RETURN(hello.channel, reader.U32());
  uint32_t flags = 0;
  LDP_ASSIGN_OR_RETURN(flags, reader.U32());
  if ((flags & ~kHelloFlagFresh) != 0) {
    return Status::InvalidArgument("unsupported HELLO flags " +
                                   std::to_string(flags));
  }
  hello.fresh = (flags & kHelloFlagFresh) != 0;
  LDP_ASSIGN_OR_RETURN(hello.ordinal, reader.U64());
  uint16_t id_length = 0;
  LDP_ASSIGN_OR_RETURN(id_length, reader.U16());
  if (id_length > kMaxReporterIdBytes) {
    return Status::InvalidArgument(
        "reporter id length " + std::to_string(id_length) +
        " exceeds bound " + std::to_string(kMaxReporterIdBytes));
  }
  if (id_length > 0) {
    // Only an identified HELLO carries a tag; an anonymous one goes
    // straight on to the stream header.
    const char* id_bytes = reader.TakeBytes(id_length);
    if (id_bytes == nullptr) {
      return Status::InvalidArgument("truncated reporter id in HELLO");
    }
    hello.reporter_id.assign(id_bytes, id_length);
    const char* tag_bytes = reader.TakeBytes(kHelloAuthTagBytes);
    if (tag_bytes == nullptr) {
      return Status::InvalidArgument("truncated auth tag in HELLO");
    }
    hello.auth_tag.assign(tag_bytes, kHelloAuthTagBytes);
  }
  hello.header_bytes = TakeRest(payload, reader);
  return hello;
}

std::string ComputeHelloTag(const std::string& campaign_key,
                            const std::string& reporter_id, uint32_t channel,
                            uint32_t epoch, const std::string& header_bytes,
                            bool fresh) {
  // Canonical tag input: a domain-separation label, then every field
  // length-delimited so no two distinct (id, channel, epoch, header) tuples
  // share an encoding. A fresh HELLO signs under its own label, so the
  // flag cannot be flipped in flight and flags-0 tags are unchanged.
  std::string canonical = fresh ? std::string("ldp-hello-v3-fresh\0", 19)
                                : std::string("ldp-hello-v3\0", 13);
  PutU16(&canonical, static_cast<uint16_t>(reporter_id.size()));
  canonical.append(reporter_id);
  PutU32(&canonical, channel);
  PutU32(&canonical, epoch);
  PutU32(&canonical, static_cast<uint32_t>(header_bytes.size()));
  canonical.append(header_bytes);
  return util::HmacSha256(campaign_key, canonical);
}

std::string EncodeHelloOk(const HelloOkMessage& ok) {
  std::string out;
  PutU32(&out, ok.channel);
  PutU64(&out, ok.shard);
  PutU32(&out, ok.epoch);
  PutU64(&out, ok.resume_offset);
  return out;
}

Result<HelloOkMessage> DecodeHelloOk(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  HelloOkMessage ok;
  LDP_ASSIGN_OR_RETURN(ok.channel, reader.U32());
  LDP_ASSIGN_OR_RETURN(ok.shard, reader.U64());
  LDP_ASSIGN_OR_RETURN(ok.epoch, reader.U32());
  LDP_ASSIGN_OR_RETURN(ok.resume_offset, reader.U64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after HELLO_OK");
  }
  return ok;
}

std::string EncodeCloseShard(const CloseShardMessage& close) {
  std::string out;
  PutU32(&out, close.channel);
  return out;
}

Result<CloseShardMessage> DecodeCloseShard(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  CloseShardMessage close;
  LDP_ASSIGN_OR_RETURN(close.channel, reader.U32());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after CLOSE_SHARD");
  }
  return close;
}

std::string EncodeSnapshot(const SnapshotMessage& snapshot) {
  std::string out;
  PutU16(&out, snapshot.version);
  PutU64(&out, snapshot.node);
  PutU64(&out, snapshot.seq);
  PutU32(&out, snapshot.epoch);
  PutU32(&out, static_cast<uint32_t>(snapshot.snapshot_bytes.size()));
  out.append(snapshot.snapshot_bytes);
  return out;
}

Result<SnapshotMessage> DecodeSnapshot(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  SnapshotMessage snapshot;
  LDP_ASSIGN_OR_RETURN(snapshot.version, reader.U16());
  if (snapshot.version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(snapshot.version));
  }
  LDP_ASSIGN_OR_RETURN(snapshot.node, reader.U64());
  LDP_ASSIGN_OR_RETURN(snapshot.seq, reader.U64());
  LDP_ASSIGN_OR_RETURN(snapshot.epoch, reader.U32());
  uint32_t length = 0;
  LDP_ASSIGN_OR_RETURN(length, reader.U32());
  const char* bytes = reader.TakeBytes(length);
  if (bytes == nullptr) {
    return Status::InvalidArgument("truncated SNAPSHOT payload");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after SNAPSHOT");
  }
  snapshot.snapshot_bytes.assign(bytes, length);
  return snapshot;
}

std::string EncodeSnapshotOk(const SnapshotOkMessage& ok) {
  std::string out;
  PutU64(&out, ok.node);
  PutU64(&out, ok.seq);
  return out;
}

Result<SnapshotOkMessage> DecodeSnapshotOk(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  SnapshotOkMessage ok;
  LDP_ASSIGN_OR_RETURN(ok.node, reader.U64());
  LDP_ASSIGN_OR_RETURN(ok.seq, reader.U64());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after SNAPSHOT_OK");
  }
  return ok;
}

std::string EncodeShardClosed(const ShardClosedMessage& closed) {
  std::string out;
  PutU32(&out, closed.channel);
  PutU8(&out, closed.code);
  PutU64(&out, closed.stats.bytes);
  PutU64(&out, closed.stats.frames);
  PutU64(&out, closed.stats.accepted);
  PutU64(&out, closed.stats.rejected);
  out.append(closed.message);
  return out;
}

Result<ShardClosedMessage> DecodeShardClosed(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed.channel, reader.U32());
  LDP_ASSIGN_OR_RETURN(closed.code, reader.U8());
  LDP_ASSIGN_OR_RETURN(closed.stats.bytes, reader.U64());
  LDP_ASSIGN_OR_RETURN(closed.stats.frames, reader.U64());
  LDP_ASSIGN_OR_RETURN(closed.stats.accepted, reader.U64());
  LDP_ASSIGN_OR_RETURN(closed.stats.rejected, reader.U64());
  closed.message = TakeRest(payload, reader);
  return closed;
}

std::string EncodeError(const Status& status) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(status.code()));
  out.append(status.message());
  return out;
}

Result<ErrorMessage> DecodeErrorMessage(const std::string& payload) {
  Reader reader(payload.data(), payload.size());
  ErrorMessage error;
  LDP_ASSIGN_OR_RETURN(error.code, reader.U8());
  if (error.code == 0) {
    // StatusFromWire(0) is OK: an ERROR must never read as success.
    return Status::InvalidArgument("ERROR message carries status code 0");
  }
  error.message = TakeRest(payload, reader);
  return error;
}

Status StatusFromWire(uint8_t code, const std::string& message) {
  if (code == 0) return Status::OK();
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("peer sent unknown status code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace ldp::net
