#include "data/csv.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace ldp::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, concurrently under -j: a
    // shared path would let one case's TearDown delete another's input.
    path_ = ::testing::TempDir() + "/ldp_csv_test_" +
            std::to_string(::getpid()) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  Schema TestSchema() {
    auto schema = Schema::Create({ColumnSpec::Numeric("x", -1.0, 1.0),
                                  ColumnSpec::Categorical("c", 3)});
    EXPECT_TRUE(schema.ok());
    return schema.value();
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTripPreservesData) {
  Dataset dataset(TestSchema());
  dataset.Resize(3);
  dataset.set_numeric(0, 0, -0.123456789012345);
  dataset.set_numeric(1, 0, 0.5);
  dataset.set_numeric(2, 0, 1.0);
  dataset.set_category(0, 1, 2);
  dataset.set_category(2, 1, 1);
  ASSERT_TRUE(WriteCsv(dataset, path_).ok());

  auto loaded = ReadCsv(TestSchema(), path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(loaded.value().numeric(i, 0), dataset.numeric(i, 0));
    EXPECT_EQ(loaded.value().category(i, 1), dataset.category(i, 1));
  }
}

TEST_F(CsvTest, EmptyDatasetRoundTrips) {
  Dataset dataset(TestSchema());
  ASSERT_TRUE(WriteCsv(dataset, path_).ok());
  auto loaded = ReadCsv(TestSchema(), path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 0u);
}

TEST_F(CsvTest, ReadRejectsMissingFile) {
  EXPECT_FALSE(ReadCsv(TestSchema(), path_ + ".does_not_exist").ok());
}

TEST_F(CsvTest, ReadRejectsWrongHeaderNames) {
  WriteFile("x,wrong\n0.5,1\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
}

TEST_F(CsvTest, ReadRejectsWrongColumnCount) {
  WriteFile("x,c\n0.5,1,9\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
  WriteFile("x,c\n0.5\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
}

TEST_F(CsvTest, ReadRejectsUnparseableNumeric) {
  WriteFile("x,c\nnot_a_number,1\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
  WriteFile("x,c\n0.5extra,1\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
}

TEST_F(CsvTest, ReadRejectsOutOfDomainCategorical) {
  WriteFile("x,c\n0.5,3\n");  // domain is {0,1,2}
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
  WriteFile("x,c\n0.5,-1\n");
  EXPECT_FALSE(ReadCsv(TestSchema(), path_).ok());
}

TEST_F(CsvTest, ReadSkipsBlankLines) {
  WriteFile("x,c\n0.5,1\n\n-0.25,2\n");
  auto loaded = ReadCsv(TestSchema(), path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(loaded.value().numeric(1, 0), -0.25);
}

TEST_F(CsvTest, WriteFailsOnUnwritablePath) {
  Dataset dataset(TestSchema());
  EXPECT_FALSE(WriteCsv(dataset, "/nonexistent_dir_xyz/file.csv").ok());
}

TEST_F(CsvTest, RowReaderStreamsWhatReadCsvMaterializes) {
  const Schema schema = TestSchema();
  WriteFile("x,c\n0.25,2\n\n-1,0\n0.75,1\n");  // blank line is skipped

  auto table = ReadCsv(schema, path_);
  ASSERT_TRUE(table.ok());

  auto reader = CsvRowReader::Open(schema, path_);
  ASSERT_TRUE(reader.ok());
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  uint64_t row = 0;
  for (;;) {
    auto more = reader.value().NextRow(&numeric, &category);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    ASSERT_EQ(numeric.size(), schema.num_columns());
    ASSERT_EQ(category.size(), schema.num_columns());
    EXPECT_DOUBLE_EQ(numeric[0], table.value().numeric(row, 0));
    EXPECT_EQ(category[1], table.value().category(row, 1));
    ++row;
  }
  EXPECT_EQ(row, table.value().num_rows());
  EXPECT_EQ(reader.value().rows_read(), table.value().num_rows());
}

TEST_F(CsvTest, RowReaderValidatesHeaderAndCells) {
  const Schema schema = TestSchema();
  WriteFile("x,WRONG\n0.25,2\n");
  EXPECT_FALSE(CsvRowReader::Open(schema, path_).ok());

  WriteFile("x,c\n0.25,7\n");  // categorical code out of range
  auto reader = CsvRowReader::Open(schema, path_);
  ASSERT_TRUE(reader.ok());
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  EXPECT_FALSE(reader.value().NextRow(&numeric, &category).ok());

  WriteFile("x,c\nnot_a_number,1\n");
  auto bad_numeric = CsvRowReader::Open(schema, path_);
  ASSERT_TRUE(bad_numeric.ok());
  EXPECT_FALSE(bad_numeric.value().NextRow(&numeric, &category).ok());

  EXPECT_FALSE(CsvRowReader::Open(schema, "/nonexistent_xyz.csv").ok());
}

}  // namespace
}  // namespace ldp::data
