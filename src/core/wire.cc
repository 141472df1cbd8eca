#include "core/wire.h"

#include <cmath>
#include <string>

namespace ldp {

namespace {

using internal_wire::kCategoricalEntry;
using internal_wire::kNumericEntry;
using internal_wire::Reader;

}  // namespace

Status CheckWireEncodable(const MixedTupleCollector& collector) {
  for (uint32_t j = 0; j < collector.dimension(); ++j) {
    const FrequencyOracle* oracle = collector.oracle_for(j);
    if (oracle != nullptr && oracle->MaxReportSize() > kMaxWirePayloadWords) {
      return Status::InvalidArgument(
          "attribute " + std::to_string(j) + ": " + oracle->name() +
          " reports of up to " + std::to_string(oracle->MaxReportSize()) +
          " values exceed the wire's payload count limit of " +
          std::to_string(kMaxWirePayloadWords));
    }
  }
  return Status::OK();
}

MixedFrameDecoder::MixedFrameDecoder(const MixedTupleCollector* collector)
    : slots_(collector->dimension()),
      max_abs_value_(collector->numeric_bound()),
      entries_(collector->k()) {
  for (uint32_t j = 0; j < collector->dimension(); ++j) {
    const FrequencyOracle* oracle = collector->oracle_for(j);
    if (oracle != nullptr) slots_[j] = {oracle, oracle->MaxReportSize()};
  }
}

const char* MixedFrameDecoder::Validate(const char* data, size_t size) {
  // Every check runs before anything is folded, in the order that fixes
  // which reason a frame with several faults reports.
  static constexpr const char* kTruncated = "truncated report";
  Reader reader(data, size);
  uint16_t count = 0;
  if (!reader.TryU16(&count)) return kTruncated;
  if (count != entries_.size()) return "report must carry exactly k entries";
  for (uint16_t i = 0; i < count; ++i) {
    MixedEntryView& entry = entries_[i];
    if (!reader.TryU32(&entry.attribute)) return kTruncated;
    if (entry.attribute >= slots_.size()) {
      return "attribute index out of range";
    }
    const AttributeSlot& slot = slots_[entry.attribute];
    entry.oracle = slot.oracle;
    uint8_t kind = 0;
    if (!reader.TryU8(&kind)) return kTruncated;
    if (kind == kNumericEntry) {
      if (slot.oracle != nullptr) {
        return "numeric entry for categorical attribute";
      }
      if (!reader.TryF64(&entry.numeric_value)) return kTruncated;
      if (!std::isfinite(entry.numeric_value) ||
          std::abs(entry.numeric_value) > max_abs_value_) {
        return "value outside the mechanism's range";
      }
    } else if (kind == kCategoricalEntry) {
      if (slot.oracle == nullptr) {
        return "categorical entry for numeric attribute";
      }
      uint16_t payload_count = 0;
      if (!reader.TryU16(&payload_count)) return kTruncated;
      // A hostile length costs no parse work beyond the oracle's maximum.
      if (payload_count > slot.max_payload) {
        return "oracle payload longer than the oracle can emit";
      }
      const char* words =
          reader.TakeBytes(4 * static_cast<size_t>(payload_count));
      if (words == nullptr) return kTruncated;
      entry.payload = FrequencyOracle::ReportView(words, payload_count);
      // Without the oracle's own shape/range check a hostile payload could
      // make its Fold index out of bounds.
      if (const char* rejected = slot.oracle->Validate(entry.payload)) {
        return rejected;
      }
    } else {
      return "unknown entry kind";
    }
    for (uint16_t previous = 0; previous < i; ++previous) {
      if (entries_[previous].attribute == entry.attribute) {
        return "duplicate attribute in report";
      }
    }
  }
  if (!reader.AtEnd()) return "trailing bytes after report";
  return nullptr;
}

}  // namespace ldp
