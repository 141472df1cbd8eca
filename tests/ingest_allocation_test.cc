// Proof of the zero-copy ingest contract: once an ingester is warmed up,
// feeding further frames must perform ZERO heap allocations on the accept
// path — no MixedReport materialization, no payload vectors, no staging
// growth — whichever of the six frequency oracles the schema uses. The same
// holds for the CSV reader on the reporter side: a steady-state NextRow over
// plain decimal rows allocates nothing. Verified with replaced global
// operator new/delete that count every allocation in the process (each
// gtest case runs in its own process under ctest, so the counter observes
// only this test).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "core/mixed_collector.h"
#include "data/csv.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "util/random.h"

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

MixedTupleCollector MakeCollector(
    FrequencyOracleKind oracle = FrequencyOracleKind::kOue) {
  auto collector = MixedTupleCollector::Create(
      {MixedAttribute::Numeric(), MixedAttribute::Categorical(8),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(16),
       MixedAttribute::Numeric(), MixedAttribute::Categorical(32)},
      4.0, MechanismKind::kHybrid, oracle);
  EXPECT_TRUE(collector.ok());
  return std::move(collector).value();
}

std::string MakeStream(const MixedTupleCollector& collector, int reports) {
  std::ostringstream out;
  ReportStreamWriter writer(&out, MakeMixedStreamHeader(collector));
  MixedTuple tuple(collector.dimension());
  for (uint32_t j = 0; j < collector.dimension(); ++j) {
    if (collector.schema()[j].type == AttributeType::kNumeric) {
      tuple[j] = AttributeValue::Numeric(0.5);
    } else {
      tuple[j] = AttributeValue::Categorical(
          j % collector.schema()[j].domain_size);
    }
  }
  // Lead with the worst-case frame (the longest payload the oracle can emit,
  // on the widest categorical attribute), so the warm-up phase provably
  // sees the largest staging demand any later frame can pose. Words 0, 1,
  // 2, ... are valid for every oracle: increasing indices for the unary
  // ones, an in-range value or bucket for GRR and OLH, any value for HE.
  MixedReport max_report(1);
  max_report[0].attribute = 5;  // Categorical(32)
  const FrequencyOracle* widest = collector.oracle_for(5);
  for (uint32_t word = 0; word < widest->MaxReportSize(); ++word) {
    max_report[0].categorical_report.push_back(word);
  }
  EXPECT_TRUE(writer.WriteMixedReport(max_report, collector).ok());
  Rng rng(21);
  for (int i = 0; i < reports - 1; ++i) {
    EXPECT_TRUE(
        writer.WriteMixedReport(collector.Perturb(tuple, &rng), collector)
            .ok());
  }
  return out.str();
}

TEST(IngestAllocationTest, SteadyStateAcceptPathIsAllocationFree) {
  for (const FrequencyOracleKind oracle :
       {FrequencyOracleKind::kGrr, FrequencyOracleKind::kSue,
        FrequencyOracleKind::kOue, FrequencyOracleKind::kOlh,
        FrequencyOracleKind::kHe, FrequencyOracleKind::kThe}) {
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
}

}  // namespace
}  // namespace ldp::stream
