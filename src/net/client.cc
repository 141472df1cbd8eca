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
  LDP_RETURN_IF_ERROR(
      SendMessage(&socket_, MessageType::kHello, EncodeHello(hello)));
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

Result<std::string> CollectorClient::AwaitReply(MessageType expected,
                                                uint32_t want_channel) {
  while (true) {
    MessageType type = MessageType::kError;
    std::string payload;
    Result<bool> got = RecvMessage(&socket_, &type, &payload);
    if (!got.ok()) return got.status();
    if (!got.value()) return Status::IoError("collector closed the connection");
    if (type == MessageType::kError) {
      ErrorMessage error;
      LDP_ASSIGN_OR_RETURN(error, DecodeErrorMessage(payload));
      return StatusFromWire(error.code, error.message);
    }
    if (type == MessageType::kShardClosed) {
      // Closes complete out of order: another channel's verdict may land
      // first.
      // Stash it for AwaitShardClosed.
      ShardClosedMessage closed;
      LDP_ASSIGN_OR_RETURN(closed, DecodeShardClosed(payload));
      if (expected == MessageType::kShardClosed &&
          closed.channel == want_channel) {
        return payload;
      }
      closed_payloads_[closed.channel] = std::move(payload);
      continue;
    }
    if (type != expected) {
      return Status::InvalidArgument("unexpected reply type from collector");
    }
    return payload;
  }
}

Status CollectorClient::Flush(uint32_t channel, ShardChannel& state) {
  if (state.staged.empty()) return Status::OK();
  std::string payload;
  internal_wire::PutU32(&payload, channel);
  payload.append(state.staged);
  state.staged.clear();
  const Status sent = SendMessage(&socket_, MessageType::kData, payload);
  if (sent.ok()) return sent;
  // A send failure usually means the server poisoned the shard and closed
  // the connection; its pending ERROR, which AwaitReply returns as a
  // failure, names the real cause. When the read side is dead too, the
  // send failure is the best verdict.
  const Status verdict = AwaitReply(MessageType::kError, channel).status();
  return verdict.code() == StatusCode::kIoError ? sent : verdict;
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
  LDP_RETURN_IF_ERROR(
      SendMessage(&socket_, MessageType::kCloseShard, EncodeCloseShard(close)));
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
    // The verdict waits for the collector to drain the shard's queued
    // chunks and reach it in its close queue — legitimately longer than
    // the idle timeout under load — so lift the timeout for this one
    // reply (the collector exempts the wait from its own idle reap too).
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

}  // namespace ldp::net
