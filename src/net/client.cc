#include "net/client.h"

#include <algorithm>
#include <utility>

#include "core/wire.h"

namespace ldp::net {

namespace {

// Appends DATA {channel, bytes} to `out` without staging the payload first.
Status AppendData(uint32_t channel, const std::string& bytes,
                  std::string* out) {
  const size_t payload = kDataChannelPrefixBytes + bytes.size();
  if (payload > kMaxMessagePayload) {
    return Status::InvalidArgument("message payload exceeds bound");
  }
  internal_wire::PutU8(out, static_cast<uint8_t>(MessageType::kData));
  internal_wire::PutU32(out, static_cast<uint32_t>(payload));
  internal_wire::PutU32(out, channel);
  out->append(bytes);
  return Status::OK();
}

}  // namespace

Result<CollectorClient> CollectorClient::Connect(
    const Endpoint& endpoint, const stream::StreamHeader& header,
    uint64_t ordinal, CollectorClientOptions options) {
  // A zero flush threshold would stage zero bytes per iteration and spin
  // forever in Send; the smallest meaningful buffer is one byte.
  options.flush_bytes = std::max<size_t>(options.flush_bytes, 1);
  Result<Socket> socket = ConnectSocket(endpoint);
  if (!socket.ok()) return socket.status();
  CollectorClient client(std::move(socket).value(), options);
  if (options.idle_timeout_ms > 0) {
    LDP_RETURN_IF_ERROR(client.socket_.SetIdleTimeout(options.idle_timeout_ms));
  }
  client.epoch_ = options.epoch;
  // The first shard keeps the round trip: its HELLO_OK may carry a WAL
  // resume offset the reporter must honour before its first DATA byte.
  const uint32_t channel = client.next_channel_++;
  LDP_RETURN_IF_ERROR(
      client.StageHello(header, ordinal, channel, /*fresh=*/false));
  LDP_RETURN_IF_ERROR(client.Transmit());
  while (!client.channels_[channel].admitted) {
    LDP_RETURN_IF_ERROR(client.ReadReply());
  }
  return client;
}

Status CollectorClient::StageHello(const stream::StreamHeader& header,
                                   uint64_t ordinal, uint32_t channel,
                                   bool fresh) {
  HelloMessage hello;
  hello.channel = channel;
  hello.ordinal = ordinal;
  hello.fresh = fresh;
  hello.header_bytes = stream::EncodeStreamHeader(header);
  if (!options_.campaign_key.empty()) {
    if (options_.reporter_id.empty()) {
      return Status::InvalidArgument(
          "authenticated campaigns require a non-empty reporter id");
    }
    if (options_.reporter_id.size() > kMaxReporterIdBytes) {
      return Status::InvalidArgument("reporter id exceeds the protocol bound");
    }
    hello.reporter_id = options_.reporter_id;
    hello.auth_tag =
        ComputeHelloTag(options_.campaign_key, options_.reporter_id, channel,
                        epoch_, hello.header_bytes, fresh);
  }
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kHello, EncodeHello(hello), &outbox_));
  channels_[channel] = ShardChannel();
  return Status::OK();
}

Result<uint32_t> CollectorClient::OpenShard(const stream::StreamHeader& header,
                                            uint64_t ordinal) {
  const uint32_t channel = next_channel_++;
  LDP_RETURN_IF_ERROR(StageHello(header, ordinal, channel, /*fresh=*/true));
  return channel;
}

uint64_t CollectorClient::resume_offset(uint32_t channel) const {
  auto found = channels_.find(channel);
  return found == channels_.end() ? 0 : found->second.resume_offset;
}

Result<bool> CollectorClient::RecvBuffered(size_t want) {
  while (inbox_.size() - inbox_read_ < want) {
    if (inbox_read_ > 0) {
      inbox_.erase(0, inbox_read_);
      inbox_read_ = 0;
    }
    const size_t have = inbox_.size();
    inbox_.resize(std::max(have + kRecvChunkBytes, want));
    bool eof = false;
    Result<size_t> got =
        socket_.RecvSome(inbox_.data() + have, inbox_.size() - have, &eof);
    inbox_.resize(have + (got.ok() ? got.value() : 0));
    if (!got.ok()) return got.status();
    if (eof) {
      if (have == 0) return false;  // clean close on a message boundary
      return Status::IoError("peer closed the connection mid-message");
    }
    // A blocking socket returns nothing only when SO_RCVTIMEO expired.
    if (got.value() == 0) return Status::DeadlineExceeded("recv timed out");
  }
  return true;
}

Result<bool> CollectorClient::RecvReply(MessageType* type,
                                        std::string* payload) {
  bool got = false;
  LDP_ASSIGN_OR_RETURN(got, RecvBuffered(kMessageHeaderBytes));
  if (!got) return false;
  MessageHeader header;
  LDP_ASSIGN_OR_RETURN(header, DecodeMessageHeader(inbox_.data() + inbox_read_,
                                                   kMessageHeaderBytes));
  const size_t size = kMessageHeaderBytes + header.payload_length;
  LDP_RETURN_IF_ERROR(RecvBuffered(size).status());
  *type = header.type;
  payload->assign(inbox_, inbox_read_ + kMessageHeaderBytes,
                  header.payload_length);
  inbox_read_ += size;
  return true;
}

Status CollectorClient::ReadReply() {
  if (!broken_.ok()) return broken_;
  MessageType type = MessageType::kError;
  std::string payload;
  Result<bool> got = RecvReply(&type, &payload);
  if (!got.ok()) {
    broken_ = got.status();
  } else if (!got.value()) {
    broken_ = Status::IoError("collector closed the connection");
  } else if (type == MessageType::kError) {
    Result<ErrorMessage> error = DecodeErrorMessage(payload);
    broken_ = error.ok()
                  ? StatusFromWire(error.value().code, error.value().message)
                  : error.status();
  } else if (type == MessageType::kHelloOk) {
    Result<HelloOkMessage> ok = DecodeHelloOk(payload);
    if (!ok.ok()) return ok.status();
    auto found = channels_.find(ok.value().channel);
    if (found == channels_.end() || found->second.admitted) {
      return Status::Internal("collector acknowledged the wrong channel");
    }
    found->second.admitted = true;
    found->second.resume_offset = ok.value().resume_offset;
    epoch_ = ok.value().epoch;
  } else if (type == MessageType::kShardClosed) {
    // Closes complete out of order: this may be any channel's verdict.
    Result<ShardClosedMessage> closed = DecodeShardClosed(payload);
    if (!closed.ok()) return closed.status();
    closed_payloads_[closed.value().channel] = std::move(payload);
  } else {
    return Status::InvalidArgument("unexpected reply type from collector");
  }
  return broken_;
}

Status CollectorClient::Transmit() {
  if (!broken_.ok()) return broken_;
  if (outbox_.empty()) return Status::OK();
  const Status sent = socket_.SendAll(outbox_);
  // Released, not cleared: an idle client would otherwise keep a whole
  // shard's bytes resident between writes.
  std::string().swap(outbox_);
  if (sent.ok()) return sent;
  // A send failure usually means the server refused a HELLO or poisoned a
  // shard and closed the connection; its pending ERROR names the real
  // cause. When the read side is dead too, the send failure is the best
  // verdict.
  Status verdict = Status::OK();
  while (verdict.ok()) verdict = ReadReply();
  return verdict.code() == StatusCode::kIoError ? sent : verdict;
}

Status CollectorClient::Flush(uint32_t channel, ShardChannel& state,
                              bool close) {
  if (!state.staged.empty()) {
    LDP_RETURN_IF_ERROR(AppendData(channel, state.staged, &outbox_));
    state.staged.clear();
  }
  if (close) {
    CloseShardMessage message;
    message.channel = channel;
    LDP_RETURN_IF_ERROR(AppendMessage(MessageType::kCloseShard,
                                      EncodeCloseShard(message), &outbox_));
  }
  return Transmit();
}

Status CollectorClient::Send(uint32_t channel, const char* data, size_t size) {
  auto found = channels_.find(channel);
  if (found == channels_.end() || found->second.closing) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  ShardChannel& state = found->second;
  size_t offset = 0;
  while (offset < size) {
    if (state.staged.size() >= options_.flush_bytes) {
      LDP_RETURN_IF_ERROR(Flush(channel, state, /*close=*/false));
    }
    const size_t take =
        std::min(size - offset, options_.flush_bytes - state.staged.size());
    state.staged.append(data + offset, take);
    offset += take;
  }
  if (state.staged.size() >= options_.flush_bytes) {
    LDP_RETURN_IF_ERROR(Flush(channel, state, /*close=*/false));
  }
  return Status::OK();
}

Status CollectorClient::CloseShardBegin(uint32_t channel) {
  auto found = channels_.find(channel);
  if (found == channels_.end()) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  if (found->second.closing) {
    return Status::FailedPrecondition("shard close already in flight");
  }
  LDP_RETURN_IF_ERROR(Flush(channel, found->second, /*close=*/true));
  found->second.closing = true;
  return Status::OK();
}

Result<ShardCloseSummary> CollectorClient::AwaitShardClosed(uint32_t channel) {
  auto found = channels_.find(channel);
  if (found == channels_.end()) {
    return Status::FailedPrecondition("no open shard on this connection");
  }
  if (!found->second.closing) {
    return Status::FailedPrecondition("CloseShardBegin this channel first");
  }
  if (closed_payloads_.count(channel) == 0) {
    // The verdict waits for the collector to drain the shard's queued
    // chunks and merge it — legitimately longer than the idle timeout
    // under load — so lift the timeout for this wait (the collector
    // exempts it from its own idle reap too).
    if (options_.idle_timeout_ms > 0) {
      LDP_RETURN_IF_ERROR(socket_.SetIdleTimeout(0));
    }
    Status read = Status::OK();
    while (read.ok() && closed_payloads_.count(channel) == 0) {
      read = ReadReply();
    }
    if (options_.idle_timeout_ms > 0) {
      LDP_RETURN_IF_ERROR(socket_.SetIdleTimeout(options_.idle_timeout_ms));
    }
    LDP_RETURN_IF_ERROR(read);
  }
  auto stashed = closed_payloads_.find(channel);
  ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(stashed->second));
  closed_payloads_.erase(stashed);
  channels_.erase(channel);
  ShardCloseSummary summary;
  summary.status = StatusFromWire(closed.code, closed.message);
  summary.stats = closed.stats;
  return summary;
}

Result<ShardCloseSummary> CollectorClient::CloseShard(uint32_t channel) {
  LDP_RETURN_IF_ERROR(CloseShardBegin(channel));
  return AwaitShardClosed(channel);
}

}  // namespace ldp::net
