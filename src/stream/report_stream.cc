#include "stream/report_stream.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "core/wire.h"

namespace ldp::stream {

namespace {

using internal_wire::PutF64;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU64;
using internal_wire::PutU8;
using internal_wire::Reader;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

class Fnv1a {
 public:
  void Mix(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= kFnvPrime;
    }
  }
  void MixU8(uint8_t v) { Mix(&v, 1); }
  void MixU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) MixU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void MixF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) MixU8(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kFnvOffset;
};

bool KnownMechanism(uint8_t value) {
  return value <= static_cast<uint8_t>(MechanismKind::kHybrid);
}

bool KnownOracle(uint8_t value) {
  return value <= static_cast<uint8_t>(FrequencyOracleKind::kThe);
}

}  // namespace

uint64_t CollectorSchemaHash(const MixedTupleCollector& collector) {
  Fnv1a fnv;
  fnv.MixU8('L');
  fnv.MixU8('D');
  fnv.MixU8('P');
  fnv.MixU8(kStreamVersion);
  fnv.MixF64(collector.epsilon());
  fnv.MixU32(collector.dimension());
  fnv.MixU32(collector.k());
  fnv.MixU8(static_cast<uint8_t>(collector.numeric_kind()));
  fnv.MixU8(static_cast<uint8_t>(collector.categorical_kind()));
  for (const MixedAttribute& attribute : collector.schema()) {
    const bool categorical = attribute.type == AttributeType::kCategorical;
    fnv.MixU8(categorical ? 1 : 0);
    fnv.MixU32(categorical ? attribute.domain_size : 0);
  }
  return fnv.hash();
}

StreamHeader MakeMixedStreamHeader(const MixedTupleCollector& collector) {
  StreamHeader header;
  header.mechanism = collector.numeric_kind();
  header.oracle = collector.categorical_kind();
  header.epsilon = collector.epsilon();
  header.dimension = collector.dimension();
  header.k = collector.k();
  header.schema_hash = CollectorSchemaHash(collector);
  return header;
}

std::string EncodeStreamHeader(const StreamHeader& header) {
  std::string out;
  out.reserve(kStreamHeaderBytes);
  PutU32(&out, kStreamMagic);
  PutU16(&out, kStreamVersion);
  PutU8(&out, 0);  // kind: mixed reports, the only kind
  PutU8(&out, static_cast<uint8_t>(header.mechanism));
  PutU8(&out, static_cast<uint8_t>(header.oracle));
  PutF64(&out, header.epsilon);
  PutU32(&out, header.dimension);
  PutU32(&out, header.k);
  PutU64(&out, header.schema_hash);
  return out;
}

Result<StreamHeader> DecodeStreamHeader(const char* data, size_t size) {
  if (size < kStreamHeaderBytes) {
    return Status::InvalidArgument("truncated stream header");
  }
  Reader reader(data, size);
  uint32_t magic = 0;
  LDP_ASSIGN_OR_RETURN(magic, reader.U32());
  if (magic != kStreamMagic) {
    return Status::InvalidArgument("not a report stream (bad magic)");
  }
  uint16_t version = 0;
  LDP_ASSIGN_OR_RETURN(version, reader.U16());
  if (version != kStreamVersion) {
    return Status::InvalidArgument("unsupported stream version");
  }
  uint8_t kind = 0, mechanism = 0, oracle = 0;
  LDP_ASSIGN_OR_RETURN(kind, reader.U8());
  LDP_ASSIGN_OR_RETURN(mechanism, reader.U8());
  LDP_ASSIGN_OR_RETURN(oracle, reader.U8());
  if (kind != 0) {
    return Status::InvalidArgument("unsupported report stream kind");
  }
  if (!KnownMechanism(mechanism)) {
    return Status::InvalidArgument("unknown mechanism kind in stream header");
  }
  if (!KnownOracle(oracle)) {
    return Status::InvalidArgument("unknown oracle kind in stream header");
  }
  StreamHeader header;
  header.mechanism = static_cast<MechanismKind>(mechanism);
  header.oracle = static_cast<FrequencyOracleKind>(oracle);
  LDP_ASSIGN_OR_RETURN(header.epsilon, reader.F64());
  LDP_ASSIGN_OR_RETURN(header.dimension, reader.U32());
  LDP_ASSIGN_OR_RETURN(header.k, reader.U32());
  LDP_ASSIGN_OR_RETURN(header.schema_hash, reader.U64());
  if (!std::isfinite(header.epsilon) || header.epsilon <= 0.0) {
    return Status::InvalidArgument("stream header carries a bad epsilon");
  }
  if (header.dimension == 0 || header.k == 0 ||
      header.k > header.dimension) {
    return Status::InvalidArgument(
        "stream header carries inconsistent dimension/k");
  }
  return header;
}

Result<StreamHeader> DecodeStreamHeader(const std::string& bytes) {
  return DecodeStreamHeader(bytes.data(), bytes.size());
}

Status ValidateMixedStreamHeader(const StreamHeader& header,
                                 const MixedTupleCollector& collector) {
  if (header.epsilon != collector.epsilon()) {
    return Status::FailedPrecondition(
        "stream epsilon does not match the server's collector");
  }
  if (header.dimension != collector.dimension() ||
      header.k != collector.k()) {
    return Status::FailedPrecondition(
        "stream dimension/k do not match the server's collector");
  }
  if (header.mechanism != collector.numeric_kind() ||
      header.oracle != collector.categorical_kind()) {
    return Status::FailedPrecondition(
        "stream mechanism/oracle kinds do not match the server's collector");
  }
  if (header.schema_hash != CollectorSchemaHash(collector)) {
    return Status::FailedPrecondition(
        "stream schema hash does not match the server's collector");
  }
  return Status::OK();
}

Status CheckHeadersCompatible(const StreamHeader& expected,
                              const StreamHeader& actual) {
  if (actual.epsilon != expected.epsilon) {
    return Status::FailedPrecondition(
        "stream epsilon does not match the collector's protocol");
  }
  if (actual.dimension != expected.dimension || actual.k != expected.k) {
    return Status::FailedPrecondition(
        "stream dimension/k do not match the collector's protocol");
  }
  if (actual.mechanism != expected.mechanism ||
      actual.oracle != expected.oracle) {
    return Status::FailedPrecondition(
        "stream mechanism/oracle kinds do not match the collector's protocol");
  }
  if (actual.schema_hash != expected.schema_hash) {
    return Status::FailedPrecondition(
        "stream schema hash does not match the collector's protocol");
  }
  return Status::OK();
}

Status AppendFrame(const std::string& payload, std::string* out) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  return Status::OK();
}

Status AppendReportFrame(const MixedTupleCollector& collector,
                         const MixedTuple& tuple, Rng* rng, std::string* out) {
  const size_t start = out->size();
  out->resize(start + 4);
  const Status appended = collector.AppendReport(tuple, rng, out);
  if (!appended.ok()) {
    out->resize(start);
    return appended;
  }
  const size_t length = out->size() - start - 4;
  if (length > kMaxFrameBytes) {
    out->resize(start);
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  internal_wire::StoreLittleEndian(&(*out)[start],
                                   static_cast<uint32_t>(length));
  return Status::OK();
}

ReportStreamWriter::ReportStreamWriter(std::ostream* out,
                                       const StreamHeader& header)
    : out_(out) {
  const std::string bytes = EncodeStreamHeader(header);
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes_written_ += bytes.size();
}

Status ReportStreamWriter::WriteReport(const MixedTupleCollector& collector,
                                       const MixedTuple& tuple, Rng* rng) {
  frame_.clear();
  LDP_RETURN_IF_ERROR(AppendReportFrame(collector, tuple, rng, &frame_));
  out_->write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
  if (!out_->good()) {
    return Status::IoError("short write on report stream");
  }
  ++frames_written_;
  bytes_written_ += frame_.size();
  return Status::OK();
}

ReportStreamReader::ReportStreamReader(std::istream* in) : in_(in) {}

Result<StreamHeader> ReportStreamReader::ReadHeader() {
  char buffer[kStreamHeaderBytes];
  in_->read(buffer, static_cast<std::streamsize>(kStreamHeaderBytes));
  if (static_cast<size_t>(in_->gcount()) != kStreamHeaderBytes) {
    return Status::InvalidArgument("truncated stream header");
  }
  Result<StreamHeader> header = DecodeStreamHeader(buffer, sizeof(buffer));
  header_read_ = header.ok();
  return header;
}

Result<bool> ReportStreamReader::NextFrame(std::string* payload) {
  if (!header_read_) {
    return Status::FailedPrecondition("ReadHeader must precede NextFrame");
  }
  char length_bytes[4];
  in_->read(length_bytes, 4);
  const auto got = static_cast<size_t>(in_->gcount());
  if (got == 0 && in_->eof()) return false;  // clean end of stream
  if (got != 4) {
    return Status::InvalidArgument("partial frame length at end of stream");
  }
  Reader reader(length_bytes, sizeof(length_bytes));
  uint32_t length = 0;
  LDP_ASSIGN_OR_RETURN(length, reader.U32());
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds kMaxFrameBytes");
  }
  payload->resize(length);
  in_->read(payload->data(), static_cast<std::streamsize>(length));
  if (static_cast<size_t>(in_->gcount()) != length) {
    return Status::InvalidArgument("partial frame payload at end of stream");
  }
  return true;
}

}  // namespace ldp::stream
