#include "stream/snapshot.h"

#include <string>
#include <utility>

#include "core/wire.h"
#include "stream/report_stream.h"
#include "util/check.h"

namespace ldp::stream {

namespace {

using internal_wire::PutF64;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU64;
using internal_wire::PutU8;
using internal_wire::Reader;

// Parses and validates the fixed-size preamble, leaving `reader` positioned at the first attribute section.
Result<SnapshotConfig> ReadConfig(Reader* reader) {
  uint32_t magic = 0;
  LDP_ASSIGN_OR_RETURN(magic, reader->U32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not an aggregator snapshot (bad magic)");
  }
  uint16_t version = 0;
  LDP_ASSIGN_OR_RETURN(version, reader->U16());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported aggregator snapshot version " +
                                   std::to_string(version));
  }
  uint8_t mechanism = 0, oracle = 0;
  LDP_ASSIGN_OR_RETURN(mechanism, reader->U8());
  LDP_ASSIGN_OR_RETURN(oracle, reader->U8());
  if (mechanism > static_cast<uint8_t>(MechanismKind::kHybrid)) {
    return Status::InvalidArgument("unknown mechanism kind in snapshot");
  }
  if (oracle > static_cast<uint8_t>(FrequencyOracleKind::kThe)) {
    return Status::InvalidArgument("unknown oracle kind in snapshot");
  }
  SnapshotConfig config;
  config.mechanism = static_cast<MechanismKind>(mechanism);
  config.oracle = static_cast<FrequencyOracleKind>(oracle);
  LDP_ASSIGN_OR_RETURN(config.schema_hash, reader->U64());
  LDP_ASSIGN_OR_RETURN(config.epsilon, reader->F64());
  LDP_ASSIGN_OR_RETURN(config.dimension, reader->U32());
  LDP_ASSIGN_OR_RETURN(config.k, reader->U32());
  LDP_ASSIGN_OR_RETURN(config.num_reports, reader->U64());
  uint32_t exponent = 0;
  LDP_ASSIGN_OR_RETURN(exponent, reader->U32());
  config.grid_exponent = static_cast<int32_t>(exponent);
  return config;
}

}  // namespace

std::string EncodeAggregatorSnapshot(const MixedAggregator& aggregator) {
  const MixedTupleCollector* collector = aggregator.collector();
  LDP_CHECK(collector != nullptr);
  const uint32_t d = collector->dimension();
  std::string out;
  PutU32(&out, kSnapshotMagic);
  PutU16(&out, kSnapshotVersion);
  PutU8(&out, static_cast<uint8_t>(collector->numeric_kind()));
  PutU8(&out, static_cast<uint8_t>(collector->categorical_kind()));
  PutU64(&out, CollectorSchemaHash(*collector));
  PutF64(&out, collector->epsilon());
  PutU32(&out, d);
  PutU32(&out, collector->k());
  PutU64(&out, aggregator.num_reports());
  PutU32(&out, static_cast<uint32_t>(collector->numeric_grid_exponent()));
  for (uint32_t j = 0; j < d; ++j) {
    PutU64(&out, aggregator.attribute_report_counts()[j]);
    const auto sum =
        static_cast<unsigned __int128>(aggregator.numeric_sums()[j]);
    PutU64(&out, static_cast<uint64_t>(sum));
    PutU64(&out, static_cast<uint64_t>(sum >> 64));
    const std::vector<uint64_t>& support = aggregator.supports()[j];
    PutU32(&out, static_cast<uint32_t>(support.size()));
    for (const uint64_t s : support) PutU64(&out, s);
  }
  return out;
}

Result<MixedAggregator> DecodeAggregatorSnapshot(
    std::string_view bytes, const MixedTupleCollector* collector) {
  LDP_CHECK(collector != nullptr);
  Reader reader(bytes.data(), bytes.size());
  SnapshotConfig config;
  LDP_ASSIGN_OR_RETURN(config, ReadConfig(&reader));
  if (config.schema_hash != CollectorSchemaHash(*collector)) {
    return Status::FailedPrecondition(
        "snapshot schema hash does not match the reducer's collector");
  }
  if (config.epsilon != collector->epsilon() ||
      config.dimension != collector->dimension() ||
      config.k != collector->k() ||
      config.mechanism != collector->numeric_kind() ||
      config.oracle != collector->categorical_kind()) {
    return Status::FailedPrecondition(
        "snapshot configuration does not match the reducer's collector");
  }
  if (config.grid_exponent != collector->numeric_grid_exponent()) {
    return Status::FailedPrecondition(
        "snapshot numeric grid does not match the reducer's collector");
  }
  const uint32_t dimension = config.dimension;
  std::vector<uint64_t> attribute_reports(dimension, 0);
  std::vector<NumericSum> numeric_sums(dimension, 0);
  std::vector<std::vector<uint64_t>> supports(dimension);
  for (uint32_t j = 0; j < dimension; ++j) {
    LDP_ASSIGN_OR_RETURN(attribute_reports[j], reader.U64());
    uint64_t low = 0, high = 0;
    LDP_ASSIGN_OR_RETURN(low, reader.U64());
    LDP_ASSIGN_OR_RETURN(high, reader.U64());
    numeric_sums[j] = static_cast<NumericSum>(
        (static_cast<unsigned __int128>(high) << 64) | low);
    uint32_t support_count = 0;
    LDP_ASSIGN_OR_RETURN(support_count, reader.U32());
    const FrequencyOracle* oracle = collector->oracle_for(j);
    if (support_count != (oracle != nullptr ? oracle->SupportSize() : 0)) {
      return Status::InvalidArgument(
          "snapshot support size does not match the attribute's domain");
    }
    supports[j].resize(support_count);
    for (uint32_t v = 0; v < support_count; ++v) {
      LDP_ASSIGN_OR_RETURN(supports[j][v], reader.U64());
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after snapshot");
  }
  return MixedAggregator::FromParts(collector, config.num_reports,
                                    std::move(attribute_reports),
                                    std::move(numeric_sums),
                                    std::move(supports));
}

bool LooksLikeSnapshot(const std::string& bytes) {
  if (bytes.size() < 4) return false;
  Reader reader(bytes);
  const Result<uint32_t> magic = reader.U32();
  return magic.ok() && magic.value() == kSnapshotMagic;
}

Result<SnapshotConfig> DecodeSnapshotConfig(std::string_view bytes) {
  Reader reader(bytes.data(), bytes.size());
  return ReadConfig(&reader);
}

}  // namespace ldp::stream
