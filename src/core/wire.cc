#include "core/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace ldp {

namespace {

using internal_wire::PutF64;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU8;
using internal_wire::Reader;

constexpr uint8_t kNumericEntry = 0;
constexpr uint8_t kCategoricalEntry = 1;

// Hard cap on staged payload elements per frame, matching the framing
// layer's 1 MiB frame bound (stream/report_stream.h kMaxFrameBytes / 4);
// keeps worst-case decoder scratch bounded even for huge schemas.
constexpr size_t kMaxStagedPayloadElements = (1u << 20) / 4;

// d/k-scaled output bound of a sampled numeric entry.
double ScaledValueBound(uint32_t dimension, uint32_t k, double output_bound) {
  return static_cast<double>(dimension) / k * output_bound;
}

}  // namespace

std::string EncodeMixedReport(const MixedReport& report,
                              const MixedTupleCollector& collector) {
  // Exact encoded size, so serialization never reallocates mid-report.
  size_t encoded_size = 2;
  for (const MixedReportEntry& entry : report) {
    const bool numeric =
        entry.attribute < collector.dimension() &&
        collector.schema()[entry.attribute].type == AttributeType::kNumeric;
    encoded_size += 4 + 1;
    encoded_size += numeric ? 8 : 2 + 4 * entry.categorical_report.size();
  }
  std::string out;
  out.reserve(encoded_size);
  PutU16(&out, static_cast<uint16_t>(report.size()));
  for (const MixedReportEntry& entry : report) {
    PutU32(&out, entry.attribute);
    const bool numeric =
        entry.attribute < collector.dimension() &&
        collector.schema()[entry.attribute].type == AttributeType::kNumeric;
    if (numeric) {
      PutU8(&out, kNumericEntry);
      PutF64(&out, entry.numeric_value);
    } else {
      PutU8(&out, kCategoricalEntry);
      PutU16(&out, static_cast<uint16_t>(entry.categorical_report.size()));
      for (const uint32_t payload : entry.categorical_report) {
        PutU32(&out, payload);
      }
    }
  }
  return out;
}

MixedFrameDecoder::MixedFrameDecoder(const MixedTupleCollector* collector)
    : collector_(collector),
      value_bound_(
          ScaledValueBound(collector->dimension(), collector->k(),
                           collector->scalar_mechanism().OutputBound())) {
  // Pre-reserve all scratch for the collector's worst-case report, so even
  // the very first frame decodes without touching the heap.
  size_t max_entry_payload = 0;
  for (uint32_t j = 0; j < collector_->dimension(); ++j) {
    const FrequencyOracle* oracle = collector_->oracle_for(j);
    if (oracle != nullptr) {
      max_entry_payload = std::max(max_entry_payload, oracle->MaxReportSize());
    }
  }
  max_entry_payload = std::min(max_entry_payload, kMaxStagedPayloadElements);
  entries_.reserve(collector_->k());
  payload_slots_.resize(collector_->k());
  for (FrequencyOracle::Report& slot : payload_slots_) {
    slot.reserve(max_entry_payload);
  }
}

Status MixedFrameDecoder::DecodeInto(const char* data, size_t size,
                                     MixedReportSink* sink) {
  // Pass 1: parse and validate the whole frame into reused scratch. Nothing
  // reaches the sink until every entry has been vetted, preserving the
  // all-or-nothing rejection semantics of the materializing decoder.
  static const auto truncated = [] {
    return Status::InvalidArgument("truncated report");
  };
  entries_.clear();
  Reader reader(data, size);
  uint16_t count = 0;
  if (!reader.TryU16(&count)) return truncated();
  if (count != collector_->k()) {
    return Status::InvalidArgument("report must carry exactly k entries");
  }
  for (uint16_t i = 0; i < count; ++i) {
    PendingEntry entry;
    if (!reader.TryU32(&entry.attribute)) return truncated();
    if (entry.attribute >= collector_->dimension()) {
      return Status::InvalidArgument("attribute index out of range");
    }
    const MixedAttribute& spec = collector_->schema()[entry.attribute];
    uint8_t kind = 0;
    if (!reader.TryU8(&kind)) return truncated();
    if (kind == kNumericEntry) {
      if (spec.type != AttributeType::kNumeric) {
        return Status::InvalidArgument("numeric entry for categorical attribute");
      }
      entry.numeric = true;
      if (!reader.TryF64(&entry.numeric_value)) return truncated();
      if (!std::isfinite(entry.numeric_value) ||
          std::abs(entry.numeric_value) > value_bound_ * (1.0 + 1e-9)) {
        return Status::InvalidArgument("value outside the mechanism's range");
      }
    } else if (kind == kCategoricalEntry) {
      if (spec.type != AttributeType::kCategorical) {
        return Status::InvalidArgument("categorical entry for numeric attribute");
      }
      const FrequencyOracle* oracle = collector_->oracle_for(entry.attribute);
      uint16_t payload_count = 0;
      if (!reader.TryU16(&payload_count)) return truncated();
      // Shape bound before buffering a single element: a hostile length can
      // neither bloat the scratch nor cost parse work beyond the oracle's
      // own maximum.
      if (payload_count > oracle->MaxReportSize()) {
        return Status::InvalidArgument(
            "oracle payload longer than the oracle can emit");
      }
      const char* raw = reader.TakeBytes(4 * static_cast<size_t>(payload_count));
      if (raw == nullptr) return truncated();
      FrequencyOracle::Report& payload = payload_slots_[i];
      payload.resize(payload_count);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      for (uint16_t p = 0; p < payload_count; ++p) {
        payload[p] = internal_wire::LoadLittleEndian<uint32_t>(raw + 4 * p);
      }
#else
      if (payload_count > 0) {
        std::memcpy(payload.data(), raw,
                    4 * static_cast<size_t>(payload_count));
      }
#endif
      // Oracle-specific shape/range validation: without it a hostile
      // payload could make the aggregator's Accumulate index out of
      // bounds (the oracles only LDP_DCHECK their inputs).
      LDP_RETURN_IF_ERROR(oracle->ValidateReport(payload));
    } else {
      return Status::InvalidArgument("unknown entry kind");
    }
    for (const PendingEntry& previous : entries_) {
      if (previous.attribute == entry.attribute) {
        return Status::InvalidArgument("duplicate attribute in report");
      }
    }
    entries_.push_back(entry);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after report");
  }

  // Pass 2: the frame is valid; replay it into the sink.
  sink->OnReportBegin(count);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const PendingEntry& entry = entries_[i];
    if (entry.numeric) {
      sink->OnNumericEntry(entry.attribute, entry.numeric_value);
    } else {
      sink->OnCategoricalEntry(entry.attribute, payload_slots_[i]);
    }
  }
  return Status::OK();
}

Status DecodeMixedReportInto(const char* data, size_t size,
                             const MixedTupleCollector& collector,
                             MixedReportSink* sink) {
  MixedFrameDecoder decoder(&collector);
  return decoder.DecodeInto(data, size, sink);
}

namespace {

// Sink that rebuilds the heap-allocated MixedReport representation; the
// backing store of the classic DecodeMixedReport API.
class MaterializingSink final : public MixedReportSink {
 public:
  void OnReportBegin(uint32_t entry_count) override {
    report_.reserve(entry_count);
  }
  void OnNumericEntry(uint32_t attribute, double value) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.numeric_value = value;
    report_.push_back(std::move(entry));
  }
  void OnCategoricalEntry(uint32_t attribute,
                          const FrequencyOracle::Report& payload) override {
    MixedReportEntry entry;
    entry.attribute = attribute;
    entry.categorical_report = payload;
    report_.push_back(std::move(entry));
  }

  MixedReport Take() { return std::move(report_); }

 private:
  MixedReport report_;
};

}  // namespace

Result<MixedReport> DecodeMixedReport(const std::string& bytes,
                                      const MixedTupleCollector& collector) {
  return DecodeMixedReport(bytes.data(), bytes.size(), collector);
}

Result<MixedReport> DecodeMixedReport(const char* data, size_t size,
                                      const MixedTupleCollector& collector) {
  MaterializingSink sink;
  LDP_RETURN_IF_ERROR(DecodeMixedReportInto(data, size, collector, &sink));
  return sink.Take();
}

}  // namespace ldp
