#include "net/client.h"

#include <algorithm>
#include <utility>

#include "core/wire.h"

namespace ldp::net {

Result<CollectorClient> CollectorClient::Connect(
    const Endpoint& endpoint, const stream::StreamHeader& header,
    uint64_t ordinal, CollectorClientOptions options) {
  // A zero flush threshold would stage zero bytes per iteration and spin
  // forever in Send; the smallest meaningful buffer is one byte.
  options.flush_bytes = std::max<size_t>(options.flush_bytes, 1);
  Result<Socket> socket = ConnectSocket(endpoint);
  if (!socket.ok()) return socket.status();
  CollectorClient client(std::move(socket).value(), options);
  if (options.window_bytes > 0) {
    // The server batches acks up to kDataAckFlushBytes: a window smaller
    // than one batch plus one flush could block for an ack that is still
    // accumulating server-side.
    client.effective_window_ = std::max<uint64_t>(
        options.window_bytes, kDataAckFlushBytes + options.flush_bytes);
  }
  if (options.idle_timeout_ms > 0) {
    LDP_RETURN_IF_ERROR(client.socket_.SetIdleTimeout(options.idle_timeout_ms));
  }
  client.epoch_ = options.epoch;
  LDP_RETURN_IF_ERROR(client.OpenShard(header, ordinal).status());
  return client;
}

Status CollectorClient::Negotiate(const stream::StreamHeader& header,
                                  uint64_t ordinal, uint32_t channel) {
  HelloMessage hello;
  hello.channel = channel;
  hello.ordinal = ordinal;
  if (effective_window_ > 0) hello.flags |= kHelloFlagDataAcks;
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
                        epoch_, hello.header_bytes);
  }
  std::string wire;
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kHello, EncodeHello(hello), &wire));
  LDP_RETURN_IF_ERROR(socket_.SendAll(wire));
  std::string payload;
  LDP_ASSIGN_OR_RETURN(payload, AwaitReply(MessageType::kHelloOk, channel));
  HelloOkMessage ok;
  LDP_ASSIGN_OR_RETURN(ok, DecodeHelloOk(payload));
  if (ok.channel != channel) {
    return Status::Internal("collector acknowledged the wrong channel");
  }
  ShardChannel state;
  state.resume_offset = ok.resume_offset;
  channels_[channel] = std::move(state);
  epoch_ = ok.epoch;
  return Status::OK();
}

Result<uint32_t> CollectorClient::OpenShard(const stream::StreamHeader& header,
                                            uint64_t ordinal) {
  const uint32_t channel = next_channel_++;
  LDP_RETURN_IF_ERROR(Negotiate(header, ordinal, channel));
  return channel;
}

uint64_t CollectorClient::resume_offset(uint32_t channel) const {
  auto found = channels_.find(channel);
  return found == channels_.end() ? 0 : found->second.resume_offset;
}

Result<std::pair<MessageType, std::string>> CollectorClient::ReadMessage() {
  char prefix[kMessageHeaderBytes];
  Result<bool> got = socket_.RecvAll(prefix, sizeof(prefix));
  if (!got.ok()) return got.status();
  if (!got.value()) {
    return Status::IoError("collector closed the connection");
  }
  Result<MessageHeader> header = DecodeMessageHeader(prefix, sizeof(prefix));
  if (!header.ok()) return header.status();
  std::string payload(header.value().payload_length, '\0');
  if (!payload.empty()) {
    Result<bool> body = socket_.RecvAll(payload.data(), payload.size());
    if (!body.ok()) return body.status();
    if (!body.value()) {
      return Status::IoError("collector closed the connection mid-reply");
    }
  }
  return std::make_pair(header.value().type, std::move(payload));
}

Status CollectorClient::ProcessAck(const std::string& payload) {
  DataAckMessage ack;
  LDP_ASSIGN_OR_RETURN(ack, DecodeDataAck(payload));
  for (const DataAckMessage::Entry& entry : ack.entries) {
    auto found = channels_.find(entry.channel);
    if (found == channels_.end()) continue;  // already awaited and erased
    found->second.acked_bytes =
        std::max(found->second.acked_bytes, entry.bytes);
  }
  return Status::OK();
}

Status CollectorClient::PumpMessage() {
  std::pair<MessageType, std::string> message;
  LDP_ASSIGN_OR_RETURN(message, ReadMessage());
  switch (message.first) {
    case MessageType::kDataAck:
      return ProcessAck(message.second);
    case MessageType::kShardClosed: {
      // Merge-barrier reordering: a verdict landed while this thread was
      // waiting for window room. Stash it for AwaitShardClosed.
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(message.second));
      closed_payloads_[closed.channel] = std::move(message.second);
      return Status::OK();
    }
    case MessageType::kError: {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(message.second));
      return StatusFromWire(error.code, error.message);
    }
    default:
      return Status::InvalidArgument("unexpected reply type from collector");
  }
}

Result<std::string> CollectorClient::AwaitReply(MessageType expected,
                                                uint32_t want_channel) {
  while (true) {
    std::pair<MessageType, std::string> message;
    LDP_ASSIGN_OR_RETURN(message, ReadMessage());
    if (message.first == MessageType::kDataAck) {
      LDP_RETURN_IF_ERROR(ProcessAck(message.second));
      continue;
    }
    if (message.first == MessageType::kError) {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(message.second));
      return StatusFromWire(error.code, error.message);
    }
    if (message.first == MessageType::kShardClosed) {
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(message.second));
      if (expected == MessageType::kShardClosed &&
          closed.channel == want_channel) {
        return std::move(message.second);
      }
      closed_payloads_[closed.channel] = std::move(message.second);
      continue;
    }
    if (message.first != expected) {
      return Status::InvalidArgument("unexpected reply type from collector");
    }
    return std::move(message.second);
  }
}

uint64_t CollectorClient::TotalInFlight() const {
  uint64_t in_flight = 0;
  for (const auto& [channel, state] : channels_) {
    in_flight += state.sent_bytes - state.acked_bytes;
  }
  return in_flight;
}

Status CollectorClient::Flush(uint32_t channel, ShardChannel& state) {
  if (state.staged.empty()) return Status::OK();
  if (effective_window_ > 0) {
    // Window full: the next DATA would overrun the bound, so block on the
    // reply stream until acks release room (early verdicts are stashed).
    while (TotalInFlight() + state.staged.size() > effective_window_) {
      LDP_RETURN_IF_ERROR(PumpMessage());
    }
  }
  std::string payload;
  internal_wire::PutU32(&payload, channel);
  payload.append(state.staged);
  std::string wire;
  LDP_RETURN_IF_ERROR(AppendMessage(MessageType::kData, payload, &wire));
  const size_t flushed = state.staged.size();
  state.staged.clear();
  const Status sent = socket_.SendAll(wire);
  if (!sent.ok()) {
    // A send failure usually means the server poisoned the shard and
    // closed the connection; its pending ERROR names the real cause. With
    // acks enabled a DATA_ACK (or an early verdict) may sit ahead of the
    // ERROR in the reply stream, so pump until a verdict surfaces or the
    // read side dies too.
    while (true) {
      Status pending = PumpMessage();
      if (pending.ok()) continue;
      return pending.code() == StatusCode::kIoError ? sent : pending;
    }
  }
  state.sent_bytes += flushed;
  return Status::OK();
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
      LDP_RETURN_IF_ERROR(Flush(channel, state));
    }
    const size_t take =
        std::min(size - offset, options_.flush_bytes - state.staged.size());
    state.staged.append(data + offset, take);
    offset += take;
  }
  if (state.staged.size() >= options_.flush_bytes) {
    LDP_RETURN_IF_ERROR(Flush(channel, state));
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
  LDP_RETURN_IF_ERROR(Flush(channel, found->second));
  CloseShardMessage close;
  close.channel = channel;
  std::string wire;
  LDP_RETURN_IF_ERROR(
      AppendMessage(MessageType::kCloseShard, EncodeCloseShard(close), &wire));
  LDP_RETURN_IF_ERROR(socket_.SendAll(wire));
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
  std::string payload;
  auto stashed = closed_payloads_.find(channel);
  if (stashed != closed_payloads_.end()) {
    payload = std::move(stashed->second);
    closed_payloads_.erase(stashed);
  } else {
    // The merge verdict may wait at the collector's ordinal barrier until
    // every smaller shard lands — legitimately much longer than the idle
    // timeout — so lift the timeout for this one reply (the collector's
    // own merge-turn bound keeps the wait finite).
    if (options_.idle_timeout_ms > 0) {
      LDP_RETURN_IF_ERROR(socket_.SetIdleTimeout(0));
    }
    Result<std::string> reply = AwaitReply(MessageType::kShardClosed, channel);
    if (options_.idle_timeout_ms > 0) {
      LDP_RETURN_IF_ERROR(socket_.SetIdleTimeout(options_.idle_timeout_ms));
    }
    if (!reply.ok()) return reply.status();
    payload = std::move(reply).value();
  }
  ShardClosedMessage closed;
  LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(payload));
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

Result<uint32_t> CollectorClient::AdvanceEpoch() {
  if (!channels_.empty()) {
    return Status::FailedPrecondition(
        "close the current shard before advancing the epoch");
  }
  std::string wire;
  LDP_RETURN_IF_ERROR(AppendMessage(MessageType::kAdvanceEpoch, "", &wire));
  LDP_RETURN_IF_ERROR(socket_.SendAll(wire));
  std::string payload;
  LDP_ASSIGN_OR_RETURN(payload,
                       AwaitReply(MessageType::kEpochAdvanced, 0));
  EpochAdvancedMessage advanced;
  LDP_ASSIGN_OR_RETURN(advanced, DecodeEpochAdvanced(payload));
  LDP_RETURN_IF_ERROR(StatusFromWire(advanced.code, advanced.message));
  epoch_ = advanced.epoch;
  return advanced.epoch;
}

}  // namespace ldp::net
