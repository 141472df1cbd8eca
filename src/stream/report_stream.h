// Framed report-stream format: the on-the-wire representation of a shard of
// privatized reports, written by client devices (tools/ldp_report) and
// ingested by the aggregation server (stream/shard_ingester.h,
// tools/ldp_aggregate).
//
// A stream is a fixed-size validated header followed by length-prefixed
// frames, each carrying one wire-encoded mixed report (core/wire.h). The
// header pins down the protocol configuration — mechanism and oracle kinds,
// ε, dimension, sample count k, and a hash of the full collection schema —
// so a server can reject a mismatched client before decoding a single
// report.
//
// Layout (all integers little-endian):
//   header: u32 magic 'LDPS', u16 version, u8 kind (always 0), u8 mechanism,
//           u8 oracle, f64 epsilon, u32 dimension, u32 k, u64 schema_hash
//   frame:  u32 payload_length (<= kMaxFrameBytes), payload bytes
// The kind byte once distinguished a second, numeric-only report format;
// it is kept (always written as 0, and a nonzero byte refused) so every
// stream written before keeps its bytes and the version stays 1. The
// stream ends at EOF on a frame boundary; a partial trailing frame is a
// framing error.

#ifndef LDP_STREAM_REPORT_STREAM_H_
#define LDP_STREAM_REPORT_STREAM_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/mixed_collector.h"
#include "util/result.h"

namespace ldp::stream {

/// 'LDPS' little-endian.
inline constexpr uint32_t kStreamMagic = 0x5350444cu;
inline constexpr uint16_t kStreamVersion = 1;

/// Serialized size of a stream header in bytes.
inline constexpr size_t kStreamHeaderBytes = 4 + 2 + 1 + 1 + 1 + 8 + 4 + 4 + 8;

/// Upper bound on a single frame's payload; anything larger is treated as a
/// framing attack / corruption rather than buffered.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// The validated preamble of a report stream.
struct StreamHeader {
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  double epsilon = 0.0;
  uint32_t dimension = 0;
  uint32_t k = 0;
  uint64_t schema_hash = 0;
};

/// FNV-1a hash of a mixed collector's full protocol configuration (ε, d, k,
/// mechanism/oracle kinds, and every attribute's type and domain). Two
/// collectors hash equal iff they are CompatibleWith each other.
uint64_t CollectorSchemaHash(const MixedTupleCollector& collector);

/// Builds the header describing streams produced by `collector`.
StreamHeader MakeMixedStreamHeader(const MixedTupleCollector& collector);

/// Serialises a header to its kStreamHeaderBytes wire form.
std::string EncodeStreamHeader(const StreamHeader& header);

/// Parses and validates a serialised header (magic, version, kind byte 0,
/// finite ε, non-zero dimension, k in [1, dimension], known enum values).
/// Requires exactly kStreamHeaderBytes.
Result<StreamHeader> DecodeStreamHeader(const char* data, size_t size);
Result<StreamHeader> DecodeStreamHeader(const std::string& bytes);

/// Checks that a decoded header matches the server's collector: equal ε /
/// dimension / k / mechanism / oracle, and equal schema hash.
/// Returns FailedPrecondition naming the first mismatch.
Status ValidateMixedStreamHeader(const StreamHeader& header,
                                 const MixedTupleCollector& collector);

/// Checks that a peer's header names exactly the protocol `expected` does
/// (mechanism, oracle, ε, dimension, k, schema hash), returning
/// FailedPrecondition naming the first mismatch. The transport edge uses
/// this to refuse a mismatched reporter at HELLO time, before any report
/// bytes are decoded.
Status CheckHeadersCompatible(const StreamHeader& expected,
                              const StreamHeader& actual);

/// Appends one length-prefixed frame to `out`. Fails on payloads above
/// kMaxFrameBytes.
Status AppendFrame(const std::string& payload, std::string* out);

/// Perturbs `tuple` and appends its report to `out` as one length-prefixed
/// frame: the report is appended in place (MixedTupleCollector::
/// AppendReport) and the length is patched in before it. Fails, with
/// `out` restored, when AppendReport refuses the tuple or the report
/// exceeds kMaxFrameBytes.
Status AppendReportFrame(const MixedTupleCollector& collector,
                         const MixedTuple& tuple, Rng* rng, std::string* out);

/// Client-side stream producer over any std::ostream. Writes the header on
/// construction, then one WriteReport call per user report, framed in a
/// buffer the writer reuses.
class ReportStreamWriter {
 public:
  /// Writes `header` to `out` immediately. `out` must outlive the writer.
  ReportStreamWriter(std::ostream* out, const StreamHeader& header);

  /// Perturbs `tuple` with `collector` and writes its report as one frame.
  Status WriteReport(const MixedTupleCollector& collector,
                     const MixedTuple& tuple, Rng* rng);

  /// Frames written so far (excluding the header).
  uint64_t frames_written() const { return frames_written_; }

  /// Total bytes written, header included.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ostream* out_;
  std::string frame_;
  uint64_t frames_written_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Pull-based stream consumer over any std::istream; the counterpart of
/// ReportStreamWriter for callers that want raw frames (the push-based
/// ShardIngester is the usual server entry point).
class ReportStreamReader {
 public:
  /// `in` must outlive the reader.
  explicit ReportStreamReader(std::istream* in);

  /// Reads and validates the stream header; must be called first.
  Result<StreamHeader> ReadHeader();

  /// Reads the next frame into `payload`. Returns true on a frame, false on
  /// clean EOF, and an error on a framing violation (oversized length,
  /// partial trailing frame).
  Result<bool> NextFrame(std::string* payload);

 private:
  std::istream* in_;
  bool header_read_ = false;
};

}  // namespace ldp::stream

#endif  // LDP_STREAM_REPORT_STREAM_H_
