// The numeric mechanisms are ε-LDP only for inputs in [-1, 1], so the
// domain is enforced before anything is drawn: the CSV reader refuses a cell
// outside its column's [lo, hi], RowToTuple lands an in-range cell whose
// quotient rounds an ulp past ±1 on ±1, AppendReport refuses a value
// outside [-1, 1] in every build, and Pipeline::Collect returns the refusal
// instead of aborting.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "core/mixed_collector.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/encode.h"
#include "data/schema.h"
#include "util/random.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

std::string Spell(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

class NumericDomainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ldp_numeric_domain_" +
            std::to_string(::getpid()) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // The census `age` column, [16, 95], next to a categorical one.
  static data::Schema AgeSchema() {
    auto schema = data::Schema::Create(
        {data::ColumnSpec::Numeric("age", 16, 95),
         data::ColumnSpec::Categorical("sector", 3)});
    EXPECT_TRUE(schema.ok());
    return schema.value();
  }

  // Reads `rows` (after the header) until the first refusal; returns it,
  // or OK when every row reads.
  Status ReadAll(const data::Schema& schema, const std::string& rows) {
    {
      std::ofstream out(path_, std::ios::trunc);
      out << "age,sector\n" << rows;
    }
    auto reader = data::CsvRowReader::Open(schema, path_);
    EXPECT_TRUE(reader.ok());
    std::vector<double> numeric;
    std::vector<uint32_t> category;
    while (true) {
      Result<bool> more = reader.value().NextRow(&numeric, &category);
      if (!more.ok()) return more.status();
      if (!more.value()) return Status::OK();
    }
  }

  std::string path_;
};

TEST_F(NumericDomainTest, ReaderRefusesCellsOutsideTheColumnRange) {
  const data::Schema schema = AgeSchema();
  // The bounds themselves read, spelled as integers or in full.
  EXPECT_TRUE(ReadAll(schema, "16,0\n95,2\n16.0,1\n9.5e1,1\n").ok());
  const std::string below = Spell(std::nextafter(16.0, -INFINITY));
  const std::string above = Spell(std::nextafter(95.0, INFINITY));
  const std::string kRange = "' is outside the schema's range [16, 95]";
  struct Case {
    std::string cell;
    std::string error;
  };
  const std::vector<Case> cases = {
      {below, "row 2, column 'age': numeric cell '" + below + kRange},
      {above, "row 2, column 'age': numeric cell '" + above + kRange},
      // A one-digit cell takes the reader's fast path; it is checked too.
      {"5", "row 2, column 'age': numeric cell '5" + kRange},
      {"1000000", "row 2, column 'age': numeric cell '1000000" + kRange},
      {"-1e308", "row 2, column 'age': numeric cell '-1e308" + kRange},
      // Non-finite cells were never numbers to the reader.
      {"inf", "row 2, column 'age': bad numeric cell 'inf'"},
      {"-inf", "row 2, column 'age': bad numeric cell '-inf'"},
  };
  for (const Case& entry : cases) {
    SCOPED_TRACE(entry.cell);
    const Status read = ReadAll(schema, "16,0\n95,1\n" + entry.cell + ",2\n");
    EXPECT_EQ(read.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(read.message(), entry.error);
    // ReadCsv, the materializing reader, refuses the same row alike.
    auto table = data::ReadCsv(schema, path_);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().message(), entry.error);
  }
}

TEST_F(NumericDomainTest, AnUlpPastOneLandsOnOne) {
  // x = hi is in range, yet (x − mid) / half_width rounds past 1 for
  // [0.1, 4.0] (and past −1 at lo for [−73, −47.492]).
  struct Case {
    double lo, hi, x, bound;
  };
  for (const Case& c : {Case{0.1, 4.0, 4.0, 1.0},
                        Case{-73.0, -47.492, -73.0, -1.0}}) {
    SCOPED_TRACE(Spell(c.x));
    const double raw = (c.x - (c.hi + c.lo) / 2.0) / ((c.hi - c.lo) / 2.0);
    ASSERT_GT(std::fabs(raw), 1.0) << "the quotient must round past";
    auto schema = data::Schema::Create({data::ColumnSpec::Numeric("x", c.lo,
                                                                  c.hi)});
    ASSERT_TRUE(schema.ok());
    MixedTuple tuple(1);
    api::RowToTuple(schema.value(), {c.x}, {0}, &tuple);
    EXPECT_EQ(tuple[0].numeric, c.bound);
    // NormalizeNumeric agrees bit for bit.
    data::Dataset dataset(schema.value());
    dataset.Resize(1);
    dataset.set_numeric(0, 0, c.x);
    EXPECT_EQ(data::NormalizeNumeric(dataset).numeric(0, 0), c.bound);
    // Out of range stays out of range, for the collector to refuse.
    api::RowToTuple(schema.value(), {c.hi + 1.0}, {0}, &tuple);
    EXPECT_GT(tuple[0].numeric, 1.0);
  }
}

api::Pipeline OneNumericPipeline() {
  auto schema = data::Schema::Create({data::ColumnSpec::Numeric("x", -1, 1)});
  EXPECT_TRUE(schema.ok());
  auto config = api::PipelineConfig::FromSchema(schema.value(), 2.0);
  EXPECT_TRUE(config.ok());
  auto pipeline = api::Pipeline::Create(std::move(config).value());
  EXPECT_TRUE(pipeline.ok());
  return std::move(pipeline).value();
}

TEST(NumericDomainRefusalTest, AppendReportRefusesValuesOutsideTheDomain) {
  const api::Pipeline pipeline = OneNumericPipeline();
  const MixedTupleCollector& collector = pipeline.mixed_collector();
  auto client = pipeline.NewClient();
  ASSERT_TRUE(client.ok());
  for (const double t :
       {std::nextafter(1.0, 2.0), std::nextafter(-1.0, -2.0), 25315.0,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(Spell(t));
    MixedTuple tuple(1);
    tuple[0].numeric = t;
    Rng rng(7);
    std::string out = "kept";
    const Status appended = collector.AppendReport(tuple, &rng, &out);
    EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(appended.message().find("outside [-1, 1]"), std::string::npos)
        << appended.ToString();
    EXPECT_EQ(out, "kept");
    std::string frames = "kept";
    EXPECT_EQ(client.value().AppendFrame(tuple, &rng, &frames).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(frames, "kept");
    EXPECT_FALSE(client.value().EncodeReport(tuple, &rng).ok());
  }
  for (const double t : {-1.0, 1.0, 0.0}) {
    MixedTuple tuple(1);
    tuple[0].numeric = t;
    Rng rng(7);
    std::string out;
    EXPECT_TRUE(collector.AppendReport(tuple, &rng, &out).ok());
    EXPECT_FALSE(out.empty());
  }
}

TEST(NumericDomainRefusalTest, CollectReturnsTheFirstRefusedRow) {
  const api::Pipeline pipeline = OneNumericPipeline();
  auto schema = data::Schema::Create({data::ColumnSpec::Numeric("x", -1, 1)});
  ASSERT_TRUE(schema.ok());
  data::Dataset dataset(schema.value());
  dataset.Resize(400);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    dataset.set_numeric(row, 0, row % 2 == 0 ? 0.5 : -0.25);
  }
  dataset.set_numeric(137, 0, 1.5);
  dataset.set_numeric(301, 0, -3.0);
  ThreadPool pool(3);
  for (ThreadPool* used : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto collected = pipeline.Collect(dataset, /*seed=*/5, used);
    ASSERT_FALSE(collected.ok());
    EXPECT_EQ(collected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(collected.status().message(),
              "row 137, attribute 0: numeric value 1.5 is outside [-1, 1]");
  }
}

}  // namespace
}  // namespace ldp
