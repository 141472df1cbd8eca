// Serializable MixedAggregator snapshots: the complete server-side state of
// one shard — report counts, numeric sums, categorical supports — as a
// validated byte string. Shards aggregated on separate machines ship their
// snapshots to a reducer, which decodes them against its own collector and
// folds them together with MixedAggregator::Merge; because the accumulated
// state is a plain sum, snapshot merging is associative, and reducing shards
// in a fixed order reproduces the single-process aggregate exactly.
//
// Layout (all integers little-endian):
//   u32 magic 'LDPA', u16 version, u8 mechanism, u8 oracle, u64 schema_hash,
//   f64 epsilon, u32 dimension, u32 k, u64 num_reports, then per attribute:
//     u64 report_count, f64 numeric_sum,
//     u32 support_count, f64 support[support_count]
//   (support_count is the categorical domain size; 0 at numeric positions).
// Mechanism and oracle kinds are carried redundantly with the schema hash so
// a reducer can reconstruct the collector configuration from a snapshot file
// alone (tools/ldp_aggregate does; see DecodeSnapshotConfig).

#ifndef LDP_STREAM_SNAPSHOT_H_
#define LDP_STREAM_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/mixed_collector.h"
#include "core/numeric_aggregator.h"
#include "stream/report_stream.h"
#include "util/result.h"

namespace ldp::stream {

/// 'LDPA' little-endian.
inline constexpr uint32_t kSnapshotMagic = 0x4150444cu;
/// 'LDPN' little-endian — Algorithm-4 numeric aggregator snapshots. A
/// separate magic (rather than a version bump) keeps every byte of the mixed
/// format, and every file already written in it, exactly as before.
inline constexpr uint32_t kNumericSnapshotMagic = 0x4e50444cu;
inline constexpr uint16_t kSnapshotVersion = 1;

/// Serialises `aggregator`'s full state (including the schema hash of the
/// collector it was built from).
std::string EncodeAggregatorSnapshot(const MixedAggregator& aggregator);

/// Parses a snapshot and rebuilds the aggregator against the reducer's
/// `collector`. Validates the magic, version, schema hash, ε, dimension and
/// k against the collector, every vector length against the schema, and
/// rejects truncated or trailing bytes and non-finite sums.
Result<MixedAggregator> DecodeAggregatorSnapshot(
    const std::string& bytes, const MixedTupleCollector* collector);

/// Serialises a numeric aggregator's full state. Layout mirrors the mixed
/// snapshot with the 'LDPN' magic and no support sections:
///   u32 magic 'LDPN', u16 version, u8 mechanism, u8 oracle (kOue, unused),
///   u64 schema_hash,
///   f64 epsilon, u32 dimension, u32 k, u64 num_reports, then per attribute:
///     u64 report_count, f64 sum.
/// `kind` names the scalar mechanism the aggregator's SampledNumericMechanism
/// was created with (it is not recorded inside the mechanism itself).
std::string EncodeNumericAggregatorSnapshot(const NumericAggregator& aggregator,
                                            MechanismKind kind);

/// Parses a numeric snapshot and rebuilds the aggregator against the
/// reducer's `mechanism`/`kind`, with the same validation discipline as the
/// mixed decoder (schema hash, ε, dimension, k, finiteness, exact length).
Result<NumericAggregator> DecodeNumericAggregatorSnapshot(
    const std::string& bytes, const SampledNumericMechanism* mechanism,
    MechanismKind kind);

/// True when `bytes` starts with the mixed snapshot magic — used by
/// ldp_aggregate to tell snapshot files from report-stream files.
bool LooksLikeSnapshot(const std::string& bytes);

/// True when `bytes` starts with the numeric snapshot magic.
bool LooksLikeNumericSnapshot(const std::string& bytes);

/// The collector configuration a snapshot was produced under; enough,
/// together with the attribute schema, to rebuild the collector.
struct SnapshotConfig {
  /// Which aggregation path produced the snapshot (mixed 'LDPA' or numeric
  /// 'LDPN').
  ReportStreamKind kind = ReportStreamKind::kMixed;
  MechanismKind mechanism = MechanismKind::kHybrid;
  /// Meaningful for mixed snapshots only; kOue on numeric snapshots.
  FrequencyOracleKind oracle = FrequencyOracleKind::kOue;
  double epsilon = 0.0;
  uint32_t dimension = 0;
  uint32_t k = 0;
  uint64_t schema_hash = 0;
  uint64_t num_reports = 0;
};

/// Parses just the snapshot preamble (magic through num_reports) of either
/// snapshot kind without decoding the accumulated state.
Result<SnapshotConfig> DecodeSnapshotConfig(std::string_view bytes);

}  // namespace ldp::stream

#endif  // LDP_STREAM_SNAPSHOT_H_
