// Serializable MixedAggregator snapshots: the complete server-side state of
// one aggregate — report counts, numeric sums, categorical supports — as a
// validated byte string. Each travels as one epoch section of an 'LDPE'
// session snapshot (api/server_session.h), never as an input of its own; a
// reducer decodes it against its own collector and folds it in with
// MixedAggregator::Merge. Because the accumulated state is a plain sum,
// snapshot merging is associative, and reducing in a fixed order reproduces
// the single-process aggregate exactly.
//
// Layout (all integers little-endian):
//   u32 magic 'LDPA', u16 version, u8 mechanism, u8 oracle, u64 schema_hash,
//   f64 epsilon, u32 dimension, u32 k, u64 num_reports, then per attribute:
//     u64 report_count, f64 numeric_sum,
//     u32 support_count, f64 support[support_count]
//   (support_count is the categorical domain size; 0 at numeric positions).
// Mechanism and oracle kinds are carried redundantly with the schema hash;
// DecodeSnapshotConfig reads them, and num_reports, without decoding the
// state.

#ifndef LDP_STREAM_SNAPSHOT_H_
#define LDP_STREAM_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/mixed_collector.h"
#include "util/result.h"

namespace ldp::stream {

/// 'LDPA' little-endian. The retired numeric-only 'LDPN' snapshot is
/// refused like any other unknown magic.
inline constexpr uint32_t kSnapshotMagic = 0x4150444cu;
inline constexpr uint16_t kSnapshotVersion = 1;

/// Serialises `aggregator`'s full state (including the schema hash of the
/// collector it was built from).
std::string EncodeAggregatorSnapshot(const MixedAggregator& aggregator);

/// Parses a snapshot and rebuilds the aggregator against the reducer's
/// `collector`. Validates the magic, version, schema hash, ε, dimension and
/// k against the collector, every vector length against the schema, and
/// rejects truncated or trailing bytes and non-finite sums.
Result<MixedAggregator> DecodeAggregatorSnapshot(
    std::string_view bytes, const MixedTupleCollector* collector);

/// True when `bytes` starts with the snapshot magic — used by
/// ldp_aggregate to tell snapshot files from report-stream files.
bool LooksLikeSnapshot(const std::string& bytes);

/// The collector configuration a snapshot was produced under; enough,
/// together with the attribute schema, to rebuild the collector.
struct SnapshotConfig {
  MechanismKind mechanism = MechanismKind::kHybrid;
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  double epsilon = 0.0;
  uint32_t dimension = 0;
  uint32_t k = 0;
  uint64_t schema_hash = 0;
  uint64_t num_reports = 0;
};

/// Parses just the snapshot preamble (magic through num_reports) without
/// decoding the accumulated state.
Result<SnapshotConfig> DecodeSnapshotConfig(std::string_view bytes);

}  // namespace ldp::stream

#endif  // LDP_STREAM_SNAPSHOT_H_
