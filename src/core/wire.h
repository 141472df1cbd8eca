// Wire format for privatized reports: a compact, validated byte encoding so
// the client half (user devices) and the server half (aggregator) of the
// protocols can actually be deployed across a network. Encoding is
// little-endian with explicit lengths; decoding validates every length and
// range against the collector's schema and returns Status on malformed or
// truncated input (never trusting the payload).
//
// Layout (all integers little-endian):
//   MixedReport: u16 entry_count, then per entry
//     u32 attribute, u8 kind (0 numeric / 1 categorical),
//     numeric:     f64 value
//     categorical: u16 payload_count, u32 payload[...]
// This is the only report format. An all-numeric schema is the paper's
// Algorithm 4 and travels in it too: every entry is numeric, at 13 bytes
// (one kind byte more than a bare attribute/value pair).
//
// Two decode surfaces exist: the materializing
// DecodeMixedReport (returns a heap-allocated MixedReport; tools and tests)
// and the streaming MixedFrameDecoder (validates a frame, then replays its
// entries into a MixedReportSink with zero per-frame allocations; the server
// ingest hot path). The materializing decoder is a thin wrapper over the
// streaming one, so the two can never diverge on what they accept.

#ifndef LDP_CORE_WIRE_H_
#define LDP_CORE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "util/result.h"

namespace ldp {

namespace internal_wire {

// Little-endian primitive writers/readers over a std::string buffer, shared
// by the report codecs here and the stream framing layer (stream/). Loads
// and stores go through std::memcpy (single mov on x86/ARM) rather than
// byte-at-a-time shift loops; big-endian hosts byte-swap after the copy.
// The reader tracks a cursor and fails closed on truncation.

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline uint16_t ToLittleEndian(uint16_t v) { return __builtin_bswap16(v); }
inline uint32_t ToLittleEndian(uint32_t v) { return __builtin_bswap32(v); }
inline uint64_t ToLittleEndian(uint64_t v) { return __builtin_bswap64(v); }
#else
inline uint16_t ToLittleEndian(uint16_t v) { return v; }
inline uint32_t ToLittleEndian(uint32_t v) { return v; }
inline uint64_t ToLittleEndian(uint64_t v) { return v; }
#endif

template <typename T>
inline T LoadLittleEndian(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return ToLittleEndian(value);
}

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

}  // namespace internal_wire

/// Serialises a Section IV-C mixed report; `collector` supplies the schema
/// that tags each entry as numeric or categorical (an empty categorical
/// oracle report is legal and indistinguishable from a numeric entry without
/// the schema). The output buffer is reserved to the exact encoded size.
std::string EncodeMixedReport(const MixedReport& report,
                              const MixedTupleCollector& collector);

/// Streaming mixed-report decoder: validates one wire frame end to end
/// (entry kinds, attribute indices, numeric bounds, oracle payload shapes,
/// duplicate attributes, entry count == k) and only then replays the entries
/// into a MixedReportSink — a sink never observes a partially valid report.
/// All scratch is owned by the decoder and pre-reserved for the collector's
/// worst-case report, so steady-state decoding performs zero heap
/// allocations. One decoder per stream/thread; not thread-safe.
class MixedFrameDecoder {
 public:
  /// `collector` must outlive the decoder.
  explicit MixedFrameDecoder(const MixedTupleCollector* collector);

  /// Validates `data` as one encoded mixed report and streams its entries
  /// into `sink` (OnReportBegin, then one On*Entry per entry). On error the
  /// sink receives no callbacks.
  Status DecodeInto(const char* data, size_t size, MixedReportSink* sink);

 private:
  // One parsed entry staged between the validation pass and sink delivery.
  // A categorical entry's payload lives in payload_slots_[its index].
  struct PendingEntry {
    uint32_t attribute = 0;
    bool numeric = false;
    double numeric_value = 0.0;
  };

  const MixedTupleCollector* collector_;
  double value_bound_;                 // d/k-scaled mechanism bound
  std::vector<PendingEntry> entries_;  // staged entries, <= k
  // One reusable payload buffer per entry slot; capacity is retained across
  // frames, so staging a payload copies its elements exactly once.
  std::vector<FrequencyOracle::Report> payload_slots_;
};

/// Convenience one-shot wrapper over MixedFrameDecoder for callers without a
/// persistent decoder (constructs scratch per call; hot paths should hold a
/// MixedFrameDecoder instead).
Status DecodeMixedReportInto(const char* data, size_t size,
                             const MixedTupleCollector& collector,
                             MixedReportSink* sink);

/// Parses a serialised mixed report, validating entry kinds, attribute
/// indices and oracle payloads against `collector`'s schema and the entry
/// count against its k (a thin materializing wrapper over MixedFrameDecoder).
/// The (data, size) overload parses in place.
Result<MixedReport> DecodeMixedReport(const char* data, size_t size,
                                      const MixedTupleCollector& collector);
Result<MixedReport> DecodeMixedReport(const std::string& bytes,
                                      const MixedTupleCollector& collector);

}  // namespace ldp

#endif  // LDP_CORE_WIRE_H_
