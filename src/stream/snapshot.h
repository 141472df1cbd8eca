// Serializable MixedAggregator snapshots: the complete server-side state of
// one aggregate — report counts, exact numeric sums, categorical supports —
// as a validated byte string. Each travels as one epoch section of an 'LDPE'
// session snapshot (api/server_session.h), never as an input of its own; a
// reducer decodes it against its own collector and folds it in with
// MixedAggregator::Merge. The state is integers, so merging snapshots is
// exact: any reduction order reproduces the single-process aggregate.
//
// Layout (all integers little-endian):
//   u32 magic 'LDPA', u16 version 2, u8 mechanism, u8 oracle,
//   u64 schema_hash, f64 epsilon, u32 dimension, u32 k, u64 num_reports,
//   i32 grid_exponent E, then per attribute: u64 report_count,
//     i128 numeric_sum in units of 2^(E−62) (u64 low, then u64 high),
//     u32 support_count, u64 support[support_count]
//   (support_count is the oracle's SupportSize(): the categorical domain
//   size, twice that for HE, which keeps each value's low and high 16-bit
//   word halves apart; 0 at numeric positions, and numeric_sum is 0 at
//   categorical ones).
// Mechanism and oracle kinds are carried redundantly with the schema hash;
// DecodeSnapshotConfig reads them, num_reports and E without decoding the
// state. Version 1 (f64 sums and supports) is refused by number.

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
inline constexpr uint16_t kSnapshotVersion = 2;

/// Serialises `aggregator`'s full state (including the schema hash of the
/// collector it was built from).
std::string EncodeAggregatorSnapshot(const MixedAggregator& aggregator);

/// Parses a snapshot and rebuilds the aggregator against the reducer's
/// `collector`. Validates the magic, version, schema hash, ε, dimension, k
/// and grid exponent against the collector, every vector length against
/// the schema, and rejects truncated or trailing bytes and any state
/// MixedAggregator::FromParts refuses.
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
  int32_t grid_exponent = 0;
};

/// Parses just the snapshot preamble (magic through grid_exponent) without
/// decoding the accumulated state.
Result<SnapshotConfig> DecodeSnapshotConfig(std::string_view bytes);

}  // namespace ldp::stream

#endif  // LDP_STREAM_SNAPSHOT_H_
