// Proof of the zero-copy ingest contract: once an ingester is warmed up,
// feeding further frames must perform ZERO heap allocations on the accept
// path — no report materialization, no payload vectors, no staging growth —
// whichever of the six frequency oracles the schema uses. The same holds on
// the reporter side: a steady-state CSV NextRow over plain decimal rows, a
// NextRow plus RowToTuple over 16-column census rows, and a steady-state
// ClientSession::AppendFrame into a reused buffer allocate nothing.
// Verified with replaced global operator new/delete that count every
// allocation in the process (each gtest case runs in its own process under
// ctest, so the counter observes only this test).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "api/pipeline.h"
#include "core/mixed_collector.h"
#include "data/census.h"
#include "data/csv.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/random.h"
#include "wire_report.h"

namespace {

std::atomic<uint64_t> g_allocation_count{0};

}  // namespace

// Replaceable global allocation functions (count, then defer to malloc).
// operator new[] and the sized/unsized deletes forward here per the
// standard's default definitions.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ldp::stream {
namespace {

constexpr FrequencyOracleKind kEveryOracle[] = {
    FrequencyOracleKind::kGrr, FrequencyOracleKind::kSue,
    FrequencyOracleKind::kOue, FrequencyOracleKind::kOlh,
    FrequencyOracleKind::kHe,  FrequencyOracleKind::kThe};

std::vector<MixedAttribute> MixedSchema() {
  return {MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
          MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
          MixedAttribute::Numeric(), MixedAttribute::Categorical(32)};
}

MixedTupleCollector MakeCollector(
    FrequencyOracleKind oracle = FrequencyOracleKind::kOue) {
  auto collector = MixedTupleCollector::Create(
      MixedSchema(), 4.0, MechanismKind::kHybrid, oracle);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

// A tuple with every numeric cell 0.5 and categorical cell j at j mod its
// domain.
MixedTuple FixedTuple(const std::vector<MixedAttribute>& schema) {
  MixedTuple tuple(schema.size());
  for (uint32_t j = 0; j < schema.size(); ++j) {
    if (schema[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(0.5);
    } else {
      tuple[j] = AttributeValue::Categorical(j % schema[j].domain_size);
    }
  }
  return tuple;
}

std::string MakeStream(const MixedTupleCollector& collector, int reports) {
  std::string out = EncodeStreamHeader(MakeMixedStreamHeader(collector));
  const MixedTuple tuple = FixedTuple(collector.schema());
  // Lead with the worst-case frame (the longest payload the oracle can emit,
  // on the widest categorical attribute), so the warm-up phase provably
  // sees the largest staging demand any later frame can pose. Words 0, 1,
  // 2, ... are valid for every oracle: increasing indices for the unary
  // ones, an in-range value or bucket for GRR and OLH, any value for HE.
  const FrequencyOracle* widest = collector.oracle_for(5);  // Categorical(32)
  std::vector<uint32_t> words(widest->MaxReportSize());
  for (uint32_t word = 0; word < words.size(); ++word) words[word] = word;
  EXPECT_TRUE(
      AppendFrame(testing::WireReport().Categorical(5, words).bytes(), &out)
          .ok());
  Rng rng(21);
  for (int i = 0; i < reports - 1; ++i) {
    EXPECT_TRUE(AppendReportFrame(collector, tuple, &rng, &out).ok());
  }
  return out;
}

TEST(IngestAllocationTest, SteadyStateAcceptPathIsAllocationFree) {
  for (const FrequencyOracleKind oracle : kEveryOracle) {
    SCOPED_TRACE(FrequencyOracleKindToString(oracle));
    const MixedTupleCollector collector = MakeCollector(oracle);
    const std::string bytes = MakeStream(collector, 4000);
    ShardIngester ingester(&collector);

    // Warm up: the header and staging-ring growth happen on the first
    // chunks.
    constexpr size_t kChunk = 4096;
    const size_t warmup_end = bytes.size() / 2;
    size_t cursor = 0;
    while (cursor < warmup_end) {
      const size_t take = std::min(kChunk, bytes.size() - cursor);
      ASSERT_TRUE(ingester.Feed(bytes.data() + cursor, take).ok());
      cursor += take;
    }
    const uint64_t accepted_before = ingester.stats().accepted;
    ASSERT_GT(accepted_before, 0u);

    // Measured window: every remaining frame must be accepted without a
    // single heap allocation.
    const uint64_t allocations_before =
        g_allocation_count.load(std::memory_order_relaxed);
    while (cursor < bytes.size()) {
      const size_t take = std::min(kChunk, bytes.size() - cursor);
      ingester.Feed(bytes.data() + cursor, take);
      cursor += take;
    }
    const uint64_t allocations_after =
        g_allocation_count.load(std::memory_order_relaxed);

    ASSERT_TRUE(ingester.Finish().ok());
    EXPECT_EQ(ingester.stats().accepted, 4000u);
    EXPECT_GT(ingester.stats().accepted, accepted_before);
    EXPECT_EQ(allocations_after - allocations_before, 0u)
        << "accept path allocated "
        << (allocations_after - allocations_before) << " times for "
        << (ingester.stats().accepted - accepted_before) << " frames";
  }
}

TEST(IngestAllocationTest, ByteAtATimeSteadyStateIsAllocationFree) {
  // The staging ring also reaches a steady state: after the first frames
  // have sized it, even byte-at-a-time feeding (every frame staged and
  // wrapped) allocates nothing.
  const MixedTupleCollector collector = MakeCollector();
  const std::string bytes = MakeStream(collector, 600);
  ShardIngester ingester(&collector);

  const size_t warmup_end = bytes.size() / 2;
  size_t cursor = 0;
  for (; cursor < warmup_end; ++cursor) {
    ASSERT_TRUE(ingester.Feed(bytes.data() + cursor, 1).ok());
  }

  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (; cursor < bytes.size(); ++cursor) {
    ingester.Feed(bytes.data() + cursor, 1);
  }
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);

  ASSERT_TRUE(ingester.Finish().ok());
  EXPECT_EQ(ingester.stats().accepted, 600u);
  EXPECT_EQ(allocations_after - allocations_before, 0u);
}

// Appends `reports` frames for `tuple` to `frames` (cleared first), user r
// drawing from UserRng(7, r).
void AppendFrames(const api::ClientSession& client, const MixedTuple& tuple,
                  uint64_t first_row, int reports, std::string* frames) {
  frames->clear();
  for (int i = 0; i < reports; ++i) {
    Rng rng = api::UserRng(7, first_row + i);
    ASSERT_TRUE(client.AppendFrame(tuple, &rng, frames).ok());
  }
}

TEST(IngestAllocationTest, ClientAppendIsAllocationFree) {
  // Once the caller's buffer has grown to a batch's size, perturbing and
  // encoding further batches into it allocates nothing: not the attribute
  // sample, not an oracle payload, not the frame. Every oracle, with HM
  // numerics, and an all-numeric schema.
  struct Case {
    std::vector<MixedAttribute> schema;
    FrequencyOracleKind oracle;
  };
  std::vector<Case> cases;
  for (const FrequencyOracleKind oracle : kEveryOracle) {
    cases.push_back({MixedSchema(), oracle});
  }
  cases.push_back({std::vector<MixedAttribute>(5, MixedAttribute::Numeric()),
                   FrequencyOracleKind::kOue});
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(FrequencyOracleKindToString(c.oracle)) + " d=" +
                 std::to_string(c.schema.size()));
    // ε = 8 samples k = 3 of the attributes, so the sampler's membership
    // scan runs too.
    api::PipelineConfig config;
    config.attributes = c.schema;
    config.epsilon = 8.0;
    config.oracle = c.oracle;
    auto pipeline = api::Pipeline::Create(config);
    ASSERT_TRUE(pipeline.ok());
    auto client = pipeline.value().NewClient();
    ASSERT_TRUE(client.ok());
    ASSERT_EQ(client.value().k(), 3u);
    const MixedTuple tuple = FixedTuple(c.schema);

    // Warm-up: the buffer grows to a batch's size.
    std::string frames;
    constexpr int kBatch = 256;
    for (int batch = 0; batch < 8; ++batch) {
      AppendFrames(client.value(), tuple, batch * kBatch, kBatch, &frames);
    }
    // Headroom, so later rows' batches cannot outgrow it.
    frames.reserve(2 * frames.capacity());

    const uint64_t allocations_before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int batch = 8; batch < 16; ++batch) {
      AppendFrames(client.value(), tuple, batch * kBatch, kBatch, &frames);
    }
    const uint64_t allocations_after =
        g_allocation_count.load(std::memory_order_relaxed);
    EXPECT_EQ(allocations_after - allocations_before, 0u)
        << "AppendFrame allocated " << (allocations_after - allocations_before)
        << " times for " << 8 * kBatch << " reports";

    // The frames are whole and valid.
    ShardIngester ingester(&pipeline.value().mixed_collector());
    ASSERT_TRUE(ingester.Feed(client.value().EncodeHeader()).ok());
    ASSERT_TRUE(ingester.Feed(frames).ok());
    ASSERT_TRUE(ingester.Finish().ok());
    EXPECT_EQ(ingester.stats().accepted, static_cast<uint64_t>(kBatch));
  }
}

TEST(IngestAllocationTest, CsvRowReaderSteadyStateIsAllocationFree) {
  auto schema = data::Schema::Create(
      {data::ColumnSpec::Numeric("x", -1.0, 1.0),
       data::ColumnSpec::Categorical("c", 16),
       data::ColumnSpec::Numeric("y", -1e6, 1e6)});
  ASSERT_TRUE(schema.ok());
  const std::string path = ::testing::TempDir() + "/ldp_csv_alloc_" +
                           std::to_string(::getpid()) + ".csv";
  {
    // Plain decimal cells, long ones (past the small-string size) and exact
    // zeros included, over several read-buffer refills.
    std::ofstream out(path, std::ios::trunc);
    out << "x,c,y\n";
    out.precision(17);
    Rng rng(5);
    for (int row = 0; row < 4000; ++row) {
      out << (row % 7 == 0 ? 0.0 : rng.Uniform(-1.0, 1.0)) << ',' << row % 16
          << ',' << (row % 5 == 0 ? -0.0 : rng.Uniform(-5e5, 5e5))
          << '\n';
    }
  }
  auto reader = data::CsvRowReader::Open(schema.value(), path);
  ASSERT_TRUE(reader.ok());
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  ASSERT_TRUE(reader.value().NextRow(&numeric, &category).value());

  const uint64_t allocations_before =
      g_allocation_count.load(std::memory_order_relaxed);
  uint64_t rows = 0;
  while (reader.value().NextRow(&numeric, &category).value()) ++rows;
  const uint64_t allocations_after =
      g_allocation_count.load(std::memory_order_relaxed);
  std::remove(path.c_str());

  EXPECT_EQ(rows, 3999u);
  EXPECT_EQ(allocations_after - allocations_before, 0u)
      << "NextRow allocated " << (allocations_after - allocations_before)
      << " times for " << rows << " rows";

  // 16-column BR census rows as WriteCsv spells them (17-digit numeric
  // cells, one-digit codes), read and normalized as a reporter does.
  auto census = data::MakeBrazilCensus(4000, 11);
  ASSERT_TRUE(census.ok());
  const data::Schema& census_schema = census.value().schema();
  ASSERT_TRUE(data::WriteCsv(census.value(), path).ok());
  auto census_reader = data::CsvRowReader::Open(census_schema, path);
  ASSERT_TRUE(census_reader.ok());
  MixedTuple tuple(census_schema.num_columns());
  ASSERT_TRUE(census_reader.value().NextRow(&numeric, &category).value());
  api::RowToTuple(census_schema, numeric, category, &tuple);

  const uint64_t census_before =
      g_allocation_count.load(std::memory_order_relaxed);
  rows = 0;
  while (census_reader.value().NextRow(&numeric, &category).value()) {
    api::RowToTuple(census_schema, numeric, category, &tuple);
    ++rows;
  }
  const uint64_t census_after =
      g_allocation_count.load(std::memory_order_relaxed);
  std::remove(path.c_str());

  EXPECT_EQ(rows, 3999u);
  EXPECT_EQ(census_after - census_before, 0u)
      << "NextRow+RowToTuple allocated " << (census_after - census_before)
      << " times for " << rows << " census rows";
}

}  // namespace
}  // namespace ldp::stream
