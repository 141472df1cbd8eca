// Wire-report helpers for the tests. A report exists only as its wire bytes
// (core/wire.h): tests perturb with MixedTupleCollector::AppendReport, read
// a report back through MixedFrameDecoder::entries(), and fold it the way
// the server does. WireReport hand-builds bytes in the same layout, without
// any check, so decoder tests can craft frames a client never would.

#ifndef LDP_TESTS_WIRE_REPORT_H_
#define LDP_TESTS_WIRE_REPORT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/mixed_collector.h"
#include "core/wire.h"
#include "util/random.h"

namespace ldp::testing {

/// Perturbs `tuple` and returns its report's wire bytes.
inline std::string PerturbBytes(const MixedTupleCollector& collector,
                                const MixedTuple& tuple, Rng* rng) {
  std::string bytes;
  collector.AppendReport(tuple, rng, &bytes);
  return bytes;
}

/// Perturbs `tuple` and folds its bytes into `aggregator` through a
/// MixedFrameDecoder: the in-process path of api::Pipeline::Collect.
inline void PerturbAndFold(const MixedTupleCollector& collector,
                           const MixedTuple& tuple, Rng* rng,
                           MixedAggregator* aggregator) {
  const std::string bytes = PerturbBytes(collector, tuple, rng);
  MixedFrameDecoder decoder(&collector);
  const char* rejected =
      decoder.DecodeInto(bytes.data(), bytes.size(), aggregator);
  ASSERT_EQ(rejected, nullptr) << rejected;
}

/// The decoder's verdict on `bytes` as one report: nullptr when valid, the
/// rejection reason otherwise.
inline const char* Rejection(const MixedTupleCollector& collector,
                             const std::string& bytes) {
  MixedFrameDecoder decoder(&collector);
  return decoder.Validate(bytes.data(), bytes.size());
}

/// The words of a categorical entry's payload, copied out of the frame.
inline std::vector<uint32_t> PayloadWords(const MixedEntryView& entry) {
  std::vector<uint32_t> words(entry.payload.size());
  for (size_t i = 0; i < words.size(); ++i) words[i] = entry.payload[i];
  return words;
}

/// A hand-built report: entries are appended in call order, and bytes()
/// leads them with their count.
class WireReport {
 public:
  WireReport& Numeric(uint32_t attribute, double value) {
    internal_wire::PutU32(&body_, attribute);
    internal_wire::PutU8(&body_, internal_wire::kNumericEntry);
    internal_wire::PutF64(&body_, value);
    ++entries_;
    return *this;
  }

  WireReport& Categorical(uint32_t attribute,
                          const std::vector<uint32_t>& words) {
    internal_wire::PutU32(&body_, attribute);
    internal_wire::PutU8(&body_, internal_wire::kCategoricalEntry);
    internal_wire::PutU16(&body_, static_cast<uint16_t>(words.size()));
    for (const uint32_t word : words) internal_wire::PutU32(&body_, word);
    ++entries_;
    return *this;
  }

  std::string bytes() const {
    std::string out;
    internal_wire::PutU16(&out, entries_);
    return out + body_;
  }

 private:
  uint16_t entries_ = 0;
  std::string body_;
};

}  // namespace ldp::testing

#endif  // LDP_TESTS_WIRE_REPORT_H_
