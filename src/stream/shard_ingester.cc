#include "stream/shard_ingester.h"

#include <algorithm>
#include <istream>
#include <string>
#include <utility>

#include "core/wire.h"
#include "util/check.h"

namespace ldp::stream {

namespace {

constexpr size_t kIngestChunkBytes = 64 * 1024;

}  // namespace

ShardIngester::ShardIngester(const MixedTupleCollector* collector,
                             Options options)
    : options_(options), aggregator_(collector), decoder_(collector) {}

Status ShardIngester::Poison(Status status) {
  LDP_CHECK(!status.ok());
  failed_ = std::move(status);
  staged_.Clear();
  return failed_;
}

size_t ShardIngester::NeedBytes() const {
  switch (state_) {
    case State::kHeader:
      return kStreamHeaderBytes;
    case State::kFrameLength:
      return 4;
    case State::kFramePayload:
      return frame_length_;
  }
  return 0;  // unreachable
}

bool ShardIngester::AcceptFrame(const char* data, size_t size) {
  ++stats_.frames;
  // The frame's entries fold straight from its wire bytes into the
  // aggregate's arrays, with no report materialized and no Status built.
  const char* rejected = decoder_.DecodeInto(data, size, &aggregator_);
  if (rejected == nullptr) {
    ++stats_.accepted;
    return true;
  }
  return RejectFrame(rejected);
}

bool ShardIngester::RejectFrame(const char* reason) {
  ++stats_.rejected;
  if (stats_.rejected > options_.max_rejected) {
    Poison(Status::InvalidArgument(
        std::string("rejected report budget exhausted: ") + reason));
    return false;
  }
  return true;
}

Status ShardIngester::ConsumeItem(const char* data, size_t size) {
  if (state_ == State::kHeader) {
    Result<StreamHeader> header = DecodeStreamHeader(data, size);
    if (!header.ok()) return Poison(header.status());
    const Status match =
        ValidateMixedStreamHeader(header.value(), *aggregator_.collector());
    if (!match.ok()) return Poison(match);
    header_ = header.value();
    state_ = State::kFrameLength;
  } else if (state_ == State::kFrameLength) {
    const uint32_t length = internal_wire::LoadLittleEndian<uint32_t>(data);
    if (length > kMaxFrameBytes) {
      return Poison(Status::InvalidArgument(
          "frame length exceeds kMaxFrameBytes"));
    }
    frame_length_ = length;
    state_ = State::kFramePayload;
  } else {  // kFramePayload
    state_ = State::kFrameLength;
    if (!AcceptFrame(data, size)) return failed_;
  }
  return Status::OK();
}

void ShardIngester::PublishMetrics() {
  // Feed/Finish granularity: one relaxed fetch_add per live counter per
  // chunk, nothing per frame. No allocation, so instrumented ingestion
  // still satisfies tests/ingest_allocation_test.cc.
  const obs::IngestMetrics& metrics = options_.metrics;
  metrics.bytes->Add(stats_.bytes - published_.bytes);
  metrics.frames->Add(stats_.frames - published_.frames);
  metrics.accepted->Add(stats_.accepted - published_.accepted);
  metrics.rejected->Add(stats_.rejected - published_.rejected);
  published_ = stats_;
}

Status ShardIngester::Feed(const char* data, size_t size) {
  const Status status = FeedChunk(data, size);
  if (options_.metrics.enabled()) PublishMetrics();
  return status;
}

Status ShardIngester::FeedChunk(const char* data, size_t size) {
  if (!failed_.ok()) return failed_;
  stats_.bytes += size;
  const char* cursor = data;
  const char* const end = data + size;

  // Complete the item left straddling the previous Feed boundary, if any.
  // Items are consumed the moment they complete, so the ring never holds
  // more than one partial item.
  if (!staged_.empty()) {
    const size_t need = NeedBytes();
    LDP_DCHECK(staged_.size() < need);
    const size_t take = std::min(need - staged_.size(),
                                 static_cast<size_t>(end - cursor));
    staged_.Append(cursor, take);
    cursor += take;
    if (staged_.size() < need) return Status::OK();  // still incomplete
    const char* item = staged_.Contiguous(need, &wrap_scratch_);
    LDP_RETURN_IF_ERROR(ConsumeItem(item, need));
    staged_.Consume(need);
  }

  for (;;) {
    if (state_ == State::kFrameLength) {
      // Hot path: frames whose length prefix and payload are both complete
      // in the caller's buffer decode in place, bypassing the state machine
      // and the staging ring entirely.
      for (;;) {
        const size_t available = static_cast<size_t>(end - cursor);
        if (available < 4) break;
        const uint32_t length =
            internal_wire::LoadLittleEndian<uint32_t>(cursor);
        if (length > kMaxFrameBytes) {
          return Poison(Status::InvalidArgument(
              "frame length exceeds kMaxFrameBytes"));
        }
        if (available - 4 < length) break;
        cursor += 4;
        if (!AcceptFrame(cursor, length)) return failed_;
        cursor += length;
      }
    }
    // Generic path: consume the next complete item (header, or an item cut
    // short above), staging a trailing partial item for the next Feed.
    const size_t need = NeedBytes();
    const size_t available = static_cast<size_t>(end - cursor);
    if (available < need) {
      staged_.Append(cursor, available);
      return Status::OK();
    }
    LDP_RETURN_IF_ERROR(ConsumeItem(cursor, need));
    cursor += need;
    if (cursor == end && NeedBytes() > 0) return Status::OK();
  }
}

Status ShardIngester::Finish() {
  if (options_.metrics.enabled()) PublishMetrics();
  if (!failed_.ok()) return failed_;
  if (state_ == State::kHeader) {
    return Poison(Status::InvalidArgument(
        "stream ended before a complete header"));
  }
  if (state_ == State::kFramePayload || !staged_.empty()) {
    return Poison(Status::InvalidArgument(
        "stream ended inside a frame"));
  }
  return Status::OK();
}

Status ShardIngester::IngestStream(std::istream& in) {
  std::string chunk(kIngestChunkBytes, '\0');
  while (in.good()) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<size_t>(in.gcount());
    if (got == 0) break;
    LDP_RETURN_IF_ERROR(Feed(chunk.data(), got));
  }
  if (in.bad()) {
    return Poison(Status::IoError("read error on report stream"));
  }
  return Finish();
}

}  // namespace ldp::stream
