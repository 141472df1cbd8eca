// Byte-identity goldens for the client encode path: 1,000 rows perturbed
// from api::UserRng(seed, row) and framed back to back must produce exactly
// the pinned bytes (their CRC-32 and length) for each frequency oracle with
// HM numerics, for PM, and for all-numeric schemas under both mechanisms.
// The digests pin the Rng draws, their order and the wire layout at once: a
// change to the sampler, an oracle's perturbation or the encoder that moves
// a single bit of a single report fails here. ClientSession::EncodeReport
// framed by stream::AppendFrame, ClientSession::AppendFrame and
// ReportStreamWriter::WriteReport must agree byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"

namespace ldp::api {
namespace {

constexpr uint64_t kSeed = 20190408;
constexpr uint64_t kRows = 1000;

struct Digest {
  uint32_t crc = 0;
  size_t bytes = 0;
};

// Six attributes, three numeric and three categorical of assorted widths;
// ε = 6 samples k = 2 of them per report.
std::vector<MixedAttribute> MixedSchema() {
  return {MixedAttribute::Numeric(),       MixedAttribute::Categorical(5),
          MixedAttribute::Numeric(),       MixedAttribute::Categorical(40),
          MixedAttribute::Categorical(2), MixedAttribute::Numeric()};
}

// Row `row`'s tuple: numeric cells spread over [-1, 1], categories cycling
// through each domain.
MixedTuple RowTuple(const std::vector<MixedAttribute>& schema, uint64_t row) {
  MixedTuple tuple(schema.size());
  for (size_t j = 0; j < schema.size(); ++j) {
    if (schema[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(
          static_cast<double>((row * 37 + j * 11) % 201) / 100.0 - 1.0);
    } else {
      tuple[j] = AttributeValue::Categorical(
          static_cast<uint32_t>((row * 7 + j) % schema[j].domain_size));
    }
  }
  return tuple;
}

Digest EncodeRows(std::vector<MixedAttribute> schema, double epsilon,
                  MechanismKind mechanism, FrequencyOracleKind oracle) {
  PipelineConfig config;
  config.attributes = schema;
  config.epsilon = epsilon;
  config.mechanism = mechanism;
  config.oracle = oracle;
  auto pipeline = Pipeline::Create(config);
  EXPECT_TRUE(pipeline.ok());
  auto client = pipeline.value().NewClient();
  EXPECT_TRUE(client.ok());
  // The three client encode calls must write the same bytes from the same
  // draws.
  std::string frames;
  std::string appended;
  std::ostringstream written;
  stream::ReportStreamWriter writer(&written, client.value().header());
  for (uint64_t row = 0; row < kRows; ++row) {
    const MixedTuple tuple = RowTuple(schema, row);
    Rng rng = UserRng(kSeed, row);
    auto payload = client.value().EncodeReport(tuple, &rng);
    EXPECT_TRUE(payload.ok());
    EXPECT_TRUE(stream::AppendFrame(payload.value(), &frames).ok());
    Rng append_rng = UserRng(kSeed, row);
    EXPECT_TRUE(client.value().AppendFrame(tuple, &append_rng, &appended).ok());
    Rng writer_rng = UserRng(kSeed, row);
    EXPECT_TRUE(
        writer.WriteReport(pipeline.value().mixed_collector(), tuple,
                           &writer_rng)
            .ok());
  }
  EXPECT_EQ(appended, frames);
  EXPECT_EQ(written.str(), client.value().EncodeHeader() + frames);
  return {relay::Crc32(frames.data(), frames.size()), frames.size()};
}

Digest MixedRows(FrequencyOracleKind oracle,
                 MechanismKind mechanism = MechanismKind::kHybrid,
                 double epsilon = 6.0) {
  return EncodeRows(MixedSchema(), epsilon, mechanism, oracle);
}

// d = 5 numeric attributes at ε = 8: k = 3.
Digest NumericRows(MechanismKind mechanism) {
  return EncodeRows(std::vector<MixedAttribute>(5, MixedAttribute::Numeric()),
                    8.0, mechanism, FrequencyOracleKind::kOue);
}

void ExpectDigest(const Digest& actual, uint32_t crc, size_t bytes) {
  EXPECT_EQ(actual.bytes, bytes);
  EXPECT_EQ(actual.crc, crc) << std::hex << "crc 0x" << actual.crc;
}

TEST(ClientEncodeGoldenTest, GrrWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kGrr), 0x9dd06406, 30024);
}

TEST(ClientEncodeGoldenTest, SueWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kSue), 0xd1dcdea4, 40032);
}

TEST(ClientEncodeGoldenTest, OueWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kOue), 0x85f2c952, 30984);
}

// At ε = 1 (k = 1) SUE's q is above the gap-skipping cut-off, so this case
// pins the unary oracles' per-bit path.
TEST(ClientEncodeGoldenTest, SuePerBitWithHm) {
  ExpectDigest(
      MixedRows(FrequencyOracleKind::kSue, MechanismKind::kHybrid, 1.0),
      0x49d8c52d, 28728);
}

TEST(ClientEncodeGoldenTest, OlhWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kOlh), 0x6df80feb, 37928);
}

TEST(ClientEncodeGoldenTest, HeWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kHe), 0xe42e7e77, 87280);
}

TEST(ClientEncodeGoldenTest, TheWithHm) {
  ExpectDigest(MixedRows(FrequencyOracleKind::kThe), 0x28031d94, 37344);
}

TEST(ClientEncodeGoldenTest, OueWithPm) {
  ExpectDigest(
      MixedRows(FrequencyOracleKind::kOue, MechanismKind::kPiecewise),
      0xe44e9c04, 30960);
}

TEST(ClientEncodeGoldenTest, AllNumericHm) {
  ExpectDigest(NumericRows(MechanismKind::kHybrid), 0x3b45ad9d, 45000);
}

TEST(ClientEncodeGoldenTest, AllNumericPm) {
  ExpectDigest(NumericRows(MechanismKind::kPiecewise), 0x04b51081, 45000);
}

}  // namespace
}  // namespace ldp::api
