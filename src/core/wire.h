// Wire format for privatized reports: a compact, validated byte encoding so
// the client half (user devices) and the server half (aggregator) of the
// protocols can actually be deployed across a network. Encoding is
// little-endian with explicit lengths; decoding validates every length and
// range against the collector's schema and rejects malformed or truncated
// input (never trusting the payload).
//
// Layout (all integers little-endian):
//   report: u16 entry_count, then per entry
//     u32 attribute, u8 kind (0 numeric / 1 categorical),
//     numeric:     f64 value
//     categorical: u16 payload_count, u32 payload[...]
// This is the only report format. An all-numeric schema is the paper's
// Algorithm 4 and travels in it too: every entry is numeric, at 13 bytes
// (one kind byte more than a bare attribute/value pair). The u16 payload
// count caps an oracle payload at 65,535 words; CheckWireEncodable refuses
// a schema whose oracle could exceed it.
//
// The client writes these bytes once, as it perturbs
// (MixedTupleCollector::AppendReport). One validator decides what is
// accepted: MixedFrameDecoder checks a frame in one pass over its bytes and
// records its entries as views into them, which the ingest path folds
// straight into a MixedAggregator.

#ifndef LDP_CORE_WIRE_H_
#define LDP_CORE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "util/little_endian.h"
#include "util/result.h"

namespace ldp {

namespace internal_wire {

// Little-endian primitive writers/readers over a std::string buffer, shared
// by the report codecs here and the stream framing layer (stream/). Stores
// mirror the loads of util/little_endian.h (one std::memcpy, byte-swapped
// on big-endian hosts). The reader tracks a cursor and fails closed on
// truncation.

template <typename T>
inline void PutLittleEndian(std::string* out, T value) {
  const T wire = ToLittleEndian(value);
  out->append(reinterpret_cast<const char*>(&wire), sizeof(T));
}

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU16(std::string* out, uint16_t value) {
  PutLittleEndian(out, value);
}

inline void PutU32(std::string* out, uint32_t value) {
  PutLittleEndian(out, value);
}

inline void PutU64(std::string* out, uint64_t value) {
  PutLittleEndian(out, value);
}

inline void PutF64(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  Result<uint8_t> U8() {
    if (cursor_ + 1 > size_) return Truncated();
    return static_cast<uint8_t>(data_[cursor_++]);
  }

  Result<uint16_t> U16() {
    if (cursor_ + 2 > size_) return Truncated();
    const uint16_t value = LoadLittleEndian<uint16_t>(data_ + cursor_);
    cursor_ += 2;
    return value;
  }

  Result<uint32_t> U32() {
    if (cursor_ + 4 > size_) return Truncated();
    const uint32_t value = LoadLittleEndian<uint32_t>(data_ + cursor_);
    cursor_ += 4;
    return value;
  }

  Result<uint64_t> U64() {
    if (cursor_ + 8 > size_) return Truncated();
    const uint64_t value = LoadLittleEndian<uint64_t>(data_ + cursor_);
    cursor_ += 8;
    return value;
  }

  Result<double> F64() {
    uint64_t bits = 0;
    LDP_ASSIGN_OR_RETURN(bits, U64());
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  // Status-free variants for hot decode loops: a Result<T> carries a Status
  // (with a std::string member) per read, which is measurable overhead at
  // tens of millions of reads per second. These return false on truncation
  // and leave `out` untouched; callers surface one Status for the whole
  // frame instead of one per primitive.

  bool TryU8(uint8_t* out) {
    if (cursor_ + 1 > size_) return false;
    *out = static_cast<uint8_t>(data_[cursor_++]);
    return true;
  }

  bool TryU16(uint16_t* out) {
    if (cursor_ + 2 > size_) return false;
    *out = LoadLittleEndian<uint16_t>(data_ + cursor_);
    cursor_ += 2;
    return true;
  }

  bool TryU32(uint32_t* out) {
    if (cursor_ + 4 > size_) return false;
    *out = LoadLittleEndian<uint32_t>(data_ + cursor_);
    cursor_ += 4;
    return true;
  }

  bool TryF64(double* out) {
    if (cursor_ + 8 > size_) return false;
    const uint64_t bits = LoadLittleEndian<uint64_t>(data_ + cursor_);
    cursor_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  /// Returns a pointer to the next `count` raw bytes and advances past them,
  /// or nullptr when fewer remain.
  const char* TakeBytes(size_t count) {
    if (cursor_ + count > size_) return nullptr;
    const char* bytes = data_ + cursor_;
    cursor_ += count;
    return bytes;
  }

  bool AtEnd() const { return cursor_ == size_; }
  size_t cursor() const { return cursor_; }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("truncated report");
  }

  const char* data_;
  size_t size_;
  size_t cursor_ = 0;
};

/// An entry's kind byte.
inline constexpr uint8_t kNumericEntry = 0;
inline constexpr uint8_t kCategoricalEntry = 1;

}  // namespace internal_wire

/// The wire's limit on an oracle payload: its count is a u16.
inline constexpr size_t kMaxWirePayloadWords = 0xffff;

/// Fails with InvalidArgument, naming the first attribute, when an oracle
/// of `collector` can emit a payload longer than kMaxWirePayloadWords: its
/// reports could not travel as mixed frames.
Status CheckWireEncodable(const MixedTupleCollector& collector);

/// The mixed-report decoder of the server's ingest path. It validates one
/// wire frame in a single pass over its bytes (entry count == k, attribute
/// indices, entry kinds, numeric bounds, payload lengths and each oracle's
/// Validate, duplicate attributes, trailing bytes), recording each entry as
/// a MixedEntryView into the frame. Only a frame that passes as a whole is
/// folded, so an aggregate never sees a partially valid report. No payload
/// is copied, nothing is allocated per frame, and accepting a frame builds
/// no Status. One decoder per stream/thread; not thread-safe.
class MixedFrameDecoder {
 public:
  /// `collector` must outlive the decoder.
  explicit MixedFrameDecoder(const MixedTupleCollector* collector);

  /// Validates `data` as one encoded mixed report. Returns nullptr when it
  /// is valid — entries() then views its k entries — and the rejection
  /// reason (a static string) otherwise.
  const char* Validate(const char* data, size_t size);

  /// Validates `data` and, when valid, folds it into `aggregator` (built
  /// from this decoder's collector). Returns what Validate returned.
  const char* DecodeInto(const char* data, size_t size,
                         MixedAggregator* aggregator) {
    const char* rejected = Validate(data, size);
    if (rejected == nullptr) {
      aggregator->FoldValidated(entries_.data(), entries_.size());
    }
    return rejected;
  }

  /// The entries of the frame Validate last accepted.
  const std::vector<MixedEntryView>& entries() const { return entries_; }

 private:
  // The collector's per-attribute table (attribute_slots()).
  const MixedTupleCollector::AttributeSlot* slots_;
  uint32_t num_slots_;
  double max_abs_value_;  // MixedTupleCollector::numeric_bound()
  std::vector<MixedEntryView> entries_;  // k views into the current frame
};

}  // namespace ldp

#endif  // LDP_CORE_WIRE_H_
