// The PR 4 adversarial stream corpus, shared between the in-process replay
// (stream_fuzz_corpus_test.cc, via ServerSession::Feed) and the socket
// transport replay (net_fault_test.cc, via a real connection): a table of
// truncated, oversized, bit-flipped, and protocol-mismatched mutations of a
// valid stream, each annotated with its exact expected outcome. Keeping one
// table guarantees the transport edge enforces the same failure policy as
// the direct ingest path.

#ifndef LDP_TESTS_STREAM_CORPUS_UTIL_H_
#define LDP_TESTS_STREAM_CORPUS_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "api/pipeline.h"
#include "core/wire.h"
#include "data/schema.h"
#include "stream/report_stream.h"

namespace ldp::testing {

inline constexpr double kCorpusEpsilon = 4.0;
inline constexpr uint64_t kCorpusReports = 40;

// Stream header field offsets (stream/report_stream.h layout).
inline constexpr size_t kCorpusMagicOffset = 0;
inline constexpr size_t kCorpusVersionOffset = 4;
inline constexpr size_t kCorpusEpsilonOffset = 9;
inline constexpr size_t kCorpusSchemaHashOffset = 25;

enum class CorpusOutcome {
  /// Framing/header violation: the shard fails at Feed or CloseShard and
  /// contributes nothing to the epoch.
  kPoisoned,
  /// Payload violations only: the shard closes cleanly, `rejected` counts
  /// the corrupt frames, every honest frame is accepted.
  kRejects,
};

struct CorpusCase {
  const char* name;
  CorpusOutcome outcome;
  /// Frames whose payload is rejected (kRejects cases).
  uint64_t expected_rejected;
  /// Honest frames still accepted by the shard's *stats* (poisoned shards
  /// accept frames pre-poison too — they just never reach the epoch).
  uint64_t expected_accepted;
  /// Whether the mutation corrupts the stream *header* (the first
  /// kStreamHeaderBytes). The socket transport negotiates the header in
  /// HELLO, so these cases must be refused at HELLO time.
  bool mutates_header;
  std::string (*mutate)(const std::string& honest);
};

// --- mutations -------------------------------------------------------------

inline std::string CorpusTruncatedHeader(const std::string& honest) {
  return honest.substr(0, stream::kStreamHeaderBytes / 2);
}

inline std::string CorpusBadMagic(const std::string& honest) {
  std::string bytes = honest;
  bytes[kCorpusMagicOffset] =
      static_cast<char>(bytes[kCorpusMagicOffset] ^ 0x01);
  return bytes;
}

inline std::string CorpusBadVersion(const std::string& honest) {
  std::string bytes = honest;
  bytes[kCorpusVersionOffset] = static_cast<char>(0xFF);
  bytes[kCorpusVersionOffset + 1] = static_cast<char>(0xFF);
  return bytes;
}

inline std::string CorpusSchemaHashFlip(const std::string& honest) {
  std::string bytes = honest;
  bytes[kCorpusSchemaHashOffset] =
      static_cast<char>(bytes[kCorpusSchemaHashOffset] ^ 0xFF);
  return bytes;
}

inline std::string CorpusEpsilonMismatch(const std::string& honest) {
  std::string bytes = honest;
  const double wrong = kCorpusEpsilon + 1.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &wrong, sizeof(bits));
  for (size_t i = 0; i < 8; ++i) {
    bytes[kCorpusEpsilonOffset + i] = static_cast<char>(bits >> (8 * i));
  }
  return bytes;
}

inline std::string CorpusOversizedFirstFrameLength(const std::string& honest) {
  std::string bytes = honest;
  const uint32_t hostile = stream::kMaxFrameBytes + 1;
  for (size_t i = 0; i < 4; ++i) {
    bytes[stream::kStreamHeaderBytes + i] =
        static_cast<char>(hostile >> (8 * i));
  }
  return bytes;
}

inline std::string CorpusTruncatedFinalFrame(const std::string& honest) {
  return honest.substr(0, honest.size() - 3);
}

inline std::string CorpusTrailingPartialLengthPrefix(
    const std::string& honest) {
  return honest + std::string(2, '\x05');
}

// Overwrites the first frame's first entry attribute index with 0xFFFFFFFF
// — a "bit-flip" guaranteed to fail range validation whatever the schema.
inline std::string CorpusBitFlippedAttribute(const std::string& honest) {
  std::string bytes = honest;
  // header | u32 frame length | u16 entry_count | u32 attribute ...
  const size_t attribute_offset = stream::kStreamHeaderBytes + 4 + 2;
  for (size_t i = 0; i < 4; ++i) {
    bytes[attribute_offset + i] = static_cast<char>(0xFF);
  }
  return bytes;
}

// Shortens the first frame's payload by one byte (fixing the length prefix
// so the framing stays intact): the payload decode is what fails.
inline std::string CorpusTruncatedFirstPayload(const std::string& honest) {
  const char* data = honest.data() + stream::kStreamHeaderBytes;
  const uint32_t length = internal_wire::LoadLittleEndian<uint32_t>(data);
  EXPECT_GT(length, 0u);
  std::string bytes = honest.substr(0, stream::kStreamHeaderBytes);
  const uint32_t shortened = length - 1;
  for (size_t i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>(shortened >> (8 * i)));
  }
  bytes.append(honest, stream::kStreamHeaderBytes + 4, shortened);
  bytes.append(honest, stream::kStreamHeaderBytes + 4 + length,
               std::string::npos);
  return bytes;
}

inline std::string CorpusZeroLengthFrameInserted(const std::string& honest) {
  std::string bytes = honest.substr(0, stream::kStreamHeaderBytes);
  bytes.append(4, '\0');  // u32 length 0, empty payload
  bytes.append(honest, stream::kStreamHeaderBytes, std::string::npos);
  return bytes;
}

inline std::string CorpusGarbageFrameAppended(const std::string& honest) {
  std::string bytes = honest;
  EXPECT_TRUE(stream::AppendFrame(std::string(5, '\xFF'), &bytes).ok());
  return bytes;
}

inline constexpr CorpusCase kStreamCorpus[] = {
    {"truncated-header", CorpusOutcome::kPoisoned, 0, 0, true,
     CorpusTruncatedHeader},
    {"bad-magic", CorpusOutcome::kPoisoned, 0, 0, true, CorpusBadMagic},
    {"bad-version", CorpusOutcome::kPoisoned, 0, 0, true, CorpusBadVersion},
    {"schema-hash-flip", CorpusOutcome::kPoisoned, 0, 0, true,
     CorpusSchemaHashFlip},
    {"epsilon-mismatch", CorpusOutcome::kPoisoned, 0, 0, true,
     CorpusEpsilonMismatch},
    {"oversized-frame-length", CorpusOutcome::kPoisoned, 0, 0, false,
     CorpusOversizedFirstFrameLength},
    {"truncated-final-frame", CorpusOutcome::kPoisoned, 0, kCorpusReports - 1,
     false, CorpusTruncatedFinalFrame},
    {"trailing-partial-length", CorpusOutcome::kPoisoned, 0, kCorpusReports,
     false, CorpusTrailingPartialLengthPrefix},
    {"bit-flipped-attribute", CorpusOutcome::kRejects, 1, kCorpusReports - 1,
     false, CorpusBitFlippedAttribute},
    {"truncated-first-payload", CorpusOutcome::kRejects, 1,
     kCorpusReports - 1, false, CorpusTruncatedFirstPayload},
    {"zero-length-frame", CorpusOutcome::kRejects, 1, kCorpusReports, false,
     CorpusZeroLengthFrameInserted},
    {"garbage-frame-appended", CorpusOutcome::kRejects, 1, kCorpusReports,
     false, CorpusGarbageFrameAppended},
};

// --- fixtures --------------------------------------------------------------

/// The corpus pipeline: a 3-attribute mixed schema (or 2-attribute numeric)
/// at kCorpusEpsilon per epoch, over an `epochs`-epoch plan.
inline api::Pipeline MakeCorpusPipeline(bool numeric, uint32_t epochs = 1) {
  auto schema =
      numeric
          ? data::Schema::Create({data::ColumnSpec::Numeric("a", -1, 1),
                                  data::ColumnSpec::Numeric("b", -1, 1)})
          : data::Schema::Create(
                {data::ColumnSpec::Numeric("income", -1, 1),
                 data::ColumnSpec::Categorical("sector", 4),
                 data::ColumnSpec::Numeric("age", -1, 1)});
  EXPECT_TRUE(schema.ok());
  auto config =
      api::PipelineConfig::FromSchema(schema.value(), kCorpusEpsilon);
  EXPECT_TRUE(config.ok());
  config.value().plan.epochs = epochs;
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

/// One honest shard stream (header + kCorpusReports frames) for the corpus
/// pipeline.
inline std::string MakeHonestStream(const api::Pipeline& pipeline,
                                    uint64_t seed) {
  auto client = pipeline.NewClient();
  EXPECT_TRUE(client.ok());
  std::string bytes = client.value().EncodeHeader();
  for (uint64_t row = 0; row < kCorpusReports; ++row) {
    Rng rng = api::UserRng(seed, row);
    // The 2-attribute corpus schema is the all-numeric one.
    const MixedTuple tuple =
        pipeline.dimension() == 2
            ? MixedTuple{AttributeValue::Numeric(0.5),
                         AttributeValue::Numeric(-0.5)}
            : MixedTuple{AttributeValue::Numeric(0.25),
                         AttributeValue::Categorical(row % 4),
                         AttributeValue::Numeric(-0.75)};
    const Result<std::string> payload =
        client.value().EncodeReport(tuple, &rng);
    EXPECT_TRUE(payload.ok());
    EXPECT_TRUE(stream::AppendFrame(payload.value(), &bytes).ok());
  }
  return bytes;
}

}  // namespace ldp::testing

#endif  // LDP_TESTS_STREAM_CORPUS_UTIL_H_
