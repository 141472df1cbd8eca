#include "data/csv.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "data/census.h"

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
  EXPECT_EQ(WriteCsv(dataset, "/nonexistent_dir_xyz/file.csv").message(),
            "cannot open for writing: /nonexistent_dir_xyz/file.csv");
  if (::access("/dev/full", W_OK) == 0) {
    EXPECT_EQ(WriteCsv(dataset, "/dev/full").message(),
              "write failed: /dev/full");
  }
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

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Reads every row of `path` through ReadCsv and through a CsvRowReader and
// checks both against `expected` (x, c) pairs, bit for bit.
void ExpectRows(const Schema& schema, const std::string& path,
                const std::vector<std::pair<double, uint32_t>>& expected) {
  auto table = ReadCsv(schema, path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table.value().num_rows(), expected.size());
  auto reader = CsvRowReader::Open(schema, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  for (uint64_t row = 0; row < expected.size(); ++row) {
    auto more = reader.value().NextRow(&numeric, &category);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(more.value()) << "row " << row;
    EXPECT_EQ(Bits(numeric[0]), Bits(expected[row].first))
        << "row " << row << ": " << numeric[0];
    EXPECT_EQ(Bits(table.value().numeric(row, 0)), Bits(expected[row].first))
        << "row " << row;
    EXPECT_EQ(category[1], expected[row].second) << "row " << row;
    EXPECT_EQ(table.value().category(row, 1), expected[row].second);
  }
  auto end = reader.value().NextRow(&numeric, &category);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value());
  auto counted = CountCsvDataRows(path);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), expected.size());
}

// One cell's verdict under the reader this one replaced: std::getline lines,
// a std::stringstream split on ',', then strtod/strtol on each cell's c_str()
// with the end, ERANGE, finiteness and domain checks. Every entry is written
// down from those semantics, not taken from the reader under test.
struct AcceptCase {
  std::string row;  // the data line after the "x,c" header
  bool accepted;
  double x;         // when accepted; compared bit for bit (-0 != 0)
  uint32_t c;       // when accepted
  std::string error;  // the refusal's message when not accepted
};

TEST_F(CsvTest, AcceptSetMatchesStrtodReader) {
  const std::string kNumeric = "row 0, column 'x': bad numeric cell '";
  const std::string kCategorical = "row 0, column 'c': bad categorical cell '";
  const double kMin = std::numeric_limits<double>::min();
  const double kMax = std::numeric_limits<double>::max();
  const std::vector<AcceptCase> cases = {
      // Numeric cells (c = 1).
      {"0,1", true, 0.0, 1, ""},
      {"-0,1", true, -0.0, 1, ""},
      {".5,1", true, 0.5, 1, ""},
      {"5.,1", true, 5.0, 1, ""},
      {"1e,1", false, 0, 0, kNumeric + "1e'"},
      {"1E5,1", true, 1e5, 1, ""},
      {"+1.5,1", true, 1.5, 1, ""},
      {" 1.5,1", true, 1.5, 1, ""},
      {"1.5 ,1", false, 0, 0, kNumeric + "1.5 '"},
      {"0x1p3,1", true, 8.0, 1, ""},
      {"4.9e-324,1", false, 0, 0, kNumeric + "4.9e-324'"},
      {"1e-310,1", false, 0, 0, kNumeric + "1e-310'"},
      {"2.2250738585072014e-308,1", true, kMin, 1, ""},
      // Rounds up to DBL_MIN, but strtod flags the tiny input ERANGE.
      {"2.2250738585072012e-308,1", false, 0, 0,
       kNumeric + "2.2250738585072012e-308'"},
      {"1.7976931348623157e308,1", true, kMax, 1, ""},
      {"1e-400,1", false, 0, 0, kNumeric + "1e-400'"},
      // A nonzero mantissa that underflows to zero is ERANGE; a zero
      // mantissa is an exact zero, whatever its exponent or spelling.
      {"0.00000000000000000001e-330,1", false, 0, 0,
       kNumeric + "0.00000000000000000001e-330'"},
      {"0e-400,1", true, 0.0, 1, ""},
      {"-0.0,1", true, -0.0, 1, ""},
      {"0.000,1", true, 0.0, 1, ""},
      {"1e400,1", false, 0, 0, kNumeric + "1e400'"},
      {"inf,1", false, 0, 0, kNumeric + "inf'"},
      {"nan,1", false, 0, 0, kNumeric + "nan'"},
      {",1", false, 0, 0, kNumeric + "'"},
      // strtod stops at the NUL that ends the cell's c_str().
      {std::string("0.5\0x,1", 7), true, 0.5, 1, ""},
      // Categorical cells (x = 0.5, domain {0, 1, 2}).
      {"0.5,+1", true, 0.5, 1, ""},
      {"0.5, 1", true, 0.5, 1, ""},
      {"0.5,-0", true, 0.5, 0, ""},
      {"0.5,01", true, 0.5, 1, ""},
      {"0.5,2", true, 0.5, 2, ""},
      {"0.5,3", false, 0, 0, kCategorical + "3'"},
      {"0.5,1.0", false, 0, 0, kCategorical + "1.0'"},
      {"0.5,4294967296", false, 0, 0, kCategorical + "4294967296'"},
      {"0.5,18446744073709551616", false, 0, 0,
       kCategorical + "18446744073709551616'"},
      // Line shape: '\r' stays in the last cell; a trailing comma is a cell.
      {"0.5,1\r", false, 0, 0, kCategorical + "1\r'"},
      {"0.5,1,", false, 0, 0, "row 0 has 3 cells, expected 2"},
      // A wrong cell count wins over a bad cell, wherever either sits.
      {"abc,1,", false, 0, 0, "row 0 has 3 cells, expected 2"},
      {"0.5,x,", false, 0, 0, "row 0 has 3 cells, expected 2"},
      {"abc", false, 0, 0, "row 0 has 1 cells, expected 2"},
      {"0.5", false, 0, 0, "row 0 has 1 cells, expected 2"},
      {"0.5,1,2", false, 0, 0, "row 0 has 3 cells, expected 2"},
      // A byte past ASCII ends the digits, even eight bytes into a line.
      {"1.25\xB9" "00000000,1", false, 0, 0,
       kNumeric + "1.25\xB9" "00000000'"},
      {"1\xFF" "2345678,1", false, 0, 0, kNumeric + "1\xFF" "2345678'"},
      // An exact double midpoint rounds to even; 20 digits and a long zero
      // code still read exactly.
      {"9007199254740993,1", true, 9007199254740992.0, 1, ""},
      {"-0.10000000000000000555,1", true, -0.1, 1, ""},
      {"0.5,00000000000002", true, 0.5, 2, ""},
  };
  const Schema schema = TestSchema();
  for (const AcceptCase& entry : cases) {
    SCOPED_TRACE("row '" + entry.row + "'");
    WriteFile("x,c\n" + entry.row + "\n");
    if (entry.accepted) {
      ExpectRows(schema, path_, {{entry.x, entry.c}});
      continue;
    }
    auto table = ReadCsv(schema, path_);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(table.status().message(), entry.error);
    auto reader = CsvRowReader::Open(schema, path_);
    ASSERT_TRUE(reader.ok());
    std::vector<double> numeric;
    std::vector<uint32_t> category;
    auto row = reader.value().NextRow(&numeric, &category);
    ASSERT_FALSE(row.ok());
    EXPECT_EQ(row.status().message(), entry.error);
  }
}

TEST_F(CsvTest, RowCountAgreesWithRowReaderOnLineShapes) {
  const Schema schema = TestSchema();
  // Blank lines are skipped; a final line without a newline is a row.
  WriteFile("x,c\n0.5,1\n\n\n0.25,2\n");
  ExpectRows(schema, path_, {{0.5, 1}, {0.25, 2}});
  WriteFile("x,c\n0.5,1\n0.25,2");
  ExpectRows(schema, path_, {{0.5, 1}, {0.25, 2}});
  // A header alone, with or without its newline, has no rows.
  WriteFile("x,c\n");
  ExpectRows(schema, path_, {});
  WriteFile("x,c");
  ExpectRows(schema, path_, {});

  // A lone "\r" line is not blank: it counts, and the reader refuses it.
  WriteFile("x,c\n\r\n0.5,1\n");
  auto counted = CountCsvDataRows(path_);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), 2u);
  auto table = ReadCsv(schema, path_);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().message(), "row 0 has 1 cells, expected 2");

  // An empty file is refused by both passes; a blank header has no columns.
  WriteFile("");
  EXPECT_EQ(CountCsvDataRows(path_).status().message(), "empty file: " + path_);
  EXPECT_EQ(CsvRowReader::Open(schema, path_).status().message(),
            "empty file: " + path_);
  WriteFile("\n");
  counted = CountCsvDataRows(path_);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), 0u);
  EXPECT_EQ(CsvRowReader::Open(schema, path_).status().message(),
            "header has 0 columns, schema expects 2");
  EXPECT_EQ(CountCsvDataRows(path_ + ".missing").status().message(),
            "cannot open for reading: " + path_ + ".missing");
}

TEST_F(CsvTest, RowsStraddleTheReadBufferAtEveryOffset) {
  // Fixed 20-byte rows ("0.xxxxxxxxxxxxxxx,c\n") of exact binary fractions;
  // shifting the rows by 0..19 leading blank lines moves the first block
  // boundary through every byte offset of a row.
  constexpr size_t kBlock = internal_csv::LineScanner::kBlockBytes;
  constexpr size_t kRowBytes = 20;
  const Schema schema = TestSchema();
  std::vector<std::pair<double, uint32_t>> expected;
  std::vector<std::string> rows;
  for (uint32_t i = 0; rows.size() * kRowBytes < 2 * kBlock + kRowBytes; ++i) {
    expected.emplace_back(i / 4096.0, i % 3);
    char row[32];
    std::snprintf(row, sizeof(row), "%.15f,%u\n", expected.back().first,
                  expected.back().second);
    ASSERT_EQ(std::strlen(row), kRowBytes);
    rows.push_back(row);
  }
  for (size_t pad = 0; pad < kRowBytes; ++pad) {
    SCOPED_TRACE("pad " + std::to_string(pad));
    std::string content = "x,c\n" + std::string(pad, '\n');
    for (const std::string& row : rows) content += row;
    WriteFile(content);
    ExpectRows(schema, path_, expected);
    content.pop_back();  // the last line loses its newline
    WriteFile(content);
    ExpectRows(schema, path_, expected);

    // A bad cell in the row holding the boundary byte keeps its exact text.
    const size_t straddling = (kBlock - 4 - pad) / kRowBytes;
    content.replace(4 + pad + straddling * kRowBytes, 17, "0.12345678901234z");
    WriteFile(content);
    auto table = ReadCsv(schema, path_);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().message(),
              "row " + std::to_string(straddling) +
                  ", column 'x': bad numeric cell '0.12345678901234z'");
  }
}

TEST_F(CsvTest, LineLongerThanTheReadBufferGrowsIt) {
  const Schema schema = TestSchema();
  const std::string long_cell =
      "0.5" + std::string(3 * internal_csv::LineScanner::kBlockBytes, '0');
  WriteFile("x,c\n0.25,1\n" + long_cell + ",2\n-0.75,0\n" + long_cell + ",1");
  ExpectRows(schema, path_, {{0.25, 1}, {0.5, 2}, {-0.75, 0}, {0.5, 1}});

  WriteFile("x,c\n0.25,1\n" + long_cell + "x,2\n");
  auto table = ReadCsv(schema, path_);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().message(),
            "row 1, column 'x': bad numeric cell '" + long_cell + "x'");
}

// strtod's verdict on one cell, exactly as the reader before from_chars
// applied it: the whole cell parsed, no ERANGE, finite.
bool StrtodVerdict(const std::string& cell, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(cell.c_str(), &end);
  return end != cell.c_str() && *end == '\0' && errno != ERANGE &&
         std::isfinite(*value);
}

double RandomBitsDouble(std::mt19937_64* rng) {
  const uint64_t bits = (*rng)();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string RandomDigits(std::mt19937_64* rng, int count) {
  std::string digits;
  for (int i = 0; i < count; ++i) {
    digits += static_cast<char>('0' + (*rng)() % 10);
  }
  return digits;
}

// The decimal spellings the corpus draws from, by family.
std::vector<std::string> ParseCorpus() {
  constexpr int kPerFamily = 180000;
  std::mt19937_64 rng(20190408);
  std::vector<std::string> corpus;
  char text[1024];
  auto sign = [&rng] { return rng() % 2 ? std::string("-") : std::string(); };
  for (int i = 0; i < kPerFamily; ++i) {
    // %.17g of a random bit pattern (nan, inf and subnormals included).
    std::snprintf(text, sizeof(text), "%.17g", RandomBitsDouble(&rng));
    corpus.emplace_back(text);
    // Shortest round-trip spelling of a random bit pattern.
    const std::to_chars_result shortest =
        std::to_chars(text, text + sizeof(text), RandomBitsDouble(&rng));
    corpus.emplace_back(text, shortest.ptr);
    // 20-40 digit mantissas with the point anywhere and any exponent.
    std::string mantissa =
        RandomDigits(&rng, 20 + static_cast<int>(rng() % 21));
    mantissa.insert(rng() % (mantissa.size() + 1), ".");
    corpus.push_back(sign() + mantissa + "e" +
                     std::to_string(static_cast<int>(rng() % 661) - 340));
    // Exponents near +-308, and mantissas sharing DBL_MIN's / DBL_MAX's
    // leading digits.
    const int near = static_cast<int>(rng() % 4);
    const std::string digits =
        RandomDigits(&rng, 1 + static_cast<int>(rng() % 24));
    if (near == 0) {
      corpus.push_back(sign() + "2.225073858507201" + digits + "e-308");
    } else if (near == 1) {
      corpus.push_back(sign() + "1.797693134862315" + digits + "e308");
    } else {
      corpus.push_back(sign() + digits.substr(0, 1) + "." + digits.substr(1) +
                       "e" + (near == 2 ? "-" : "") +
                       std::to_string(300 + rng() % 31));
    }
    // Halfway between a double and its successor, spelled exactly, and cut
    // to 40 significant digits. The long double sum is exact.
    double low = RandomBitsDouble(&rng);
    int exponent = 0;
    std::frexp(low, &exponent);
    if (!std::isfinite(low) || exponent < -100 || exponent > 100) {
      low = std::ldexp(1.0 + (rng() % 1000000) / 1e6,
                       static_cast<int>(rng() % 201) - 100);
    }
    const long double halfway =
        (static_cast<long double>(low) +
         static_cast<long double>(std::nextafter(low, HUGE_VAL))) /
        2;
    std::snprintf(text, sizeof(text), "%.180Le", halfway);
    corpus.emplace_back(text);
    std::snprintf(text, sizeof(text), "%.39Le", halfway);
    corpus.emplace_back(text);
    // Census-style fixed-point cells, integers and zeros.
    std::snprintf(text, sizeof(text), "%.*f", static_cast<int>(rng() % 18),
                  (static_cast<double>(rng() % 2000000) - 1e6) /
                      static_cast<double>(1 + rng() % 1000));
    corpus.emplace_back(text);
  }
  for (int i = 0; i < kPerFamily / 10; ++i) {
    // Halfway between two doubles, spelled exactly in at most 19 significant
    // digits past 2^53: an odd m in (2^53, 2^54) over 2^k, k <= 3.
    const uint64_t odd =
        (uint64_t{1} << 53) + 1 + 2 * (rng() % (uint64_t{1} << 52));
    const int shift = static_cast<int>(rng() % 4);
    std::snprintf(text, sizeof(text), "%s%.*Lf", sign().c_str(), shift,
                  std::ldexp(static_cast<long double>(odd), -shift));
    corpus.emplace_back(text);
    // A short mantissa behind up to 30 zeros: the fraction digit count
    // runs past the exact tiers' 22 and 27.
    corpus.push_back(sign() + "0." + std::string(rng() % 31, '0') +
                     RandomDigits(&rng, 1 + static_cast<int>(rng() % 8)));
    // 20 significant digits, the point anywhere.
    std::string twenty =
        std::to_string(1 + rng() % 9) + RandomDigits(&rng, 19);
    twenty.insert(rng() % (twenty.size() + 1), ".");
    corpus.push_back(sign() + twenty);
  }
  // Census-shaped cells: %.17g of every numeric cell of a BR census.
  auto census = MakeBrazilCensus(kPerFamily / 60, 7);
  if (census.ok()) {
    const Schema& schema = census.value().schema();
    for (uint64_t row = 0; row < census.value().num_rows(); ++row) {
      for (uint32_t col = 0; col < schema.num_columns(); ++col) {
        if (schema.column(col).type != ColumnType::kNumeric) continue;
        std::snprintf(text, sizeof(text), "%.17g",
                      census.value().numeric(row, col));
        corpus.emplace_back(text);
      }
    }
  }
  for (const char* edge :
       {"0", "-0", "0.0", "000.000", "0e999999", "-0.000e-99999", "0e-400",
        "1e-400", "0.0001e-320", "4.9e-324", "2.4703282292062328e-324",
        "2.2250738585072009e-308", "2.2250738585072011e-308",
        "2.2250738585072013e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "9007199254740993", "1e23"}) {
    corpus.emplace_back(edge);
  }
  // Exact halfway points at the subnormal/normal and normal/overflow edges.
  const double kMin = std::numeric_limits<double>::min();
  const double kMax = std::numeric_limits<double>::max();
  for (const long double halfway :
       {(static_cast<long double>(kMin) + std::nextafter(kMin, 0.0)) / 2,
        (static_cast<long double>(kMin) + std::nextafter(kMin, 1.0)) / 2,
        static_cast<long double>(kMax) +
            (static_cast<long double>(kMax) - std::nextafter(kMax, 0.0)) / 2}) {
    std::snprintf(text, sizeof(text), "%.800Le", halfway);
    corpus.emplace_back(text);
  }
  return corpus;
}

TEST_F(CsvTest, WriteSpellsCellsAsAnOstreamAtPrecision17) {
  // Every corpus spelling's strtod value, whatever strtod's verdict, and the
  // edges: zeros, subnormals, the extremes, infinities and NaN.
  std::vector<double> values;
  for (const std::string& cell : ParseCorpus()) {
    values.push_back(std::strtod(cell.c_str(), nullptr));
  }
  using Limits = std::numeric_limits<double>;
  for (const double edge :
       {0.0, -0.0, Limits::denorm_min(), -Limits::denorm_min(),
        Limits::min() / 3, Limits::min(), -Limits::min(), Limits::max(),
        Limits::lowest(), Limits::infinity(), -Limits::infinity(),
        Limits::quiet_NaN(), -Limits::quiet_NaN(), 1e16, 1e17, 123456789.0}) {
    values.push_back(edge);
  }
  Dataset dataset(TestSchema());
  dataset.Resize(values.size());
  std::ostringstream expected;
  expected << "x,c\n";
  expected.precision(17);
  for (uint64_t row = 0; row < values.size(); ++row) {
    dataset.set_numeric(row, 0, values[row]);
    dataset.set_category(row, 1, static_cast<uint32_t>(row % 3));
    expected << values[row] << ',' << row % 3 << '\n';
  }
  ASSERT_TRUE(WriteCsv(dataset, path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  ASSERT_EQ(written.str().size(), expected.str().size());
  EXPECT_TRUE(written.str() == expected.str());
}

// The numeric parser NextRow runs, as NextRow runs it: from the cell's start
// to the end of a line that goes on past the cell. It takes the cell when it
// stops exactly at the cell's ','; parsing the bare cell must agree.
bool ReaderTakesNumeric(const std::string& cell, double* value,
                        internal_csv::NumericTier* tier) {
  const std::string line = cell + ",12";
  const char* const stop = internal_csv::ParseNumericPrefix(
      line.data(), line.data() + line.size(), value, tier);
  double bare = 0;
  const char* const bare_stop = internal_csv::ParseNumericPrefix(
      cell.data(), cell.data() + cell.size(), &bare);
  const bool taken = stop == line.data() + cell.size();
  EXPECT_EQ(taken, bare_stop == cell.data() + cell.size()) << cell;
  if (taken) {
    EXPECT_EQ(Bits(bare), Bits(*value)) << cell;
  }
  return taken;
}

TEST(CsvParseCorpusTest, FastNumericPathIsStrtodBitForBit) {
  const std::vector<std::string> corpus = ParseCorpus();
  ASSERT_GE(corpus.size(), 1000000u);
  const double kMin = std::numeric_limits<double>::min();
  const double kMax = std::numeric_limits<double>::max();
  uint64_t fast_accepted = 0;
  uint64_t by_tier[2] = {0, 0};
  int reported = 0;
  for (const std::string& cell : corpus) {
    double reference = 0;
    const bool strtod_accepts = StrtodVerdict(cell, &reference);
    double fast = 0;
    auto tier = internal_csv::NumericTier::kFromChars;
    const bool fast_accepts = ReaderTakesNumeric(cell, &fast, &tier);
    if (fast_accepts) {
      ++fast_accepted;
      ++by_tier[static_cast<int>(tier)];
    }
    // The fast path declines only what the header names: results at or
    // past DBL_MIN/DBL_MAX. Every other cell strtod accepts, it takes.
    const bool must_take =
        strtod_accepts && (reference == 0 || (std::fabs(reference) > kMin &&
                                              std::fabs(reference) < kMax));
    bool ok = fast_accepts
                  ? strtod_accepts && Bits(fast) == Bits(reference)
                  : !must_take;
    // The exact tier takes no exponent, no 20th significant digit and no
    // 28th fraction digit.
    const size_t significant = cell.find_first_not_of("-0.");
    const bool plain = cell.find_first_of("eE") == std::string::npos;
    const size_t point = cell.find('.');
    if (tier != internal_csv::NumericTier::kFromChars &&
        (!plain ||
         (significant != std::string::npos &&
          cell.size() - significant -
                  (cell.find('.', significant) != std::string::npos) >
              19) ||
         (point != std::string::npos && cell.size() - point - 1 > 27))) {
      ok = false;
    }
    if (!ok && reported++ < 10) {
      ADD_FAILURE() << "cell '" << cell << "': strtod "
                    << (strtod_accepts ? "accepts " : "refuses ") << reference
                    << ", fast path "
                    << (fast_accepts ? "accepts " : "declines ") << fast
                    << " (tier " << static_cast<int>(tier) << ")";
    }
  }
  EXPECT_EQ(reported, 0);
  EXPECT_GT(fast_accepted, corpus.size() / 2);
  EXPECT_GT(by_tier[static_cast<int>(internal_csv::NumericTier::kExact)], 0u);
  EXPECT_GT(by_tier[static_cast<int>(internal_csv::NumericTier::kFromChars)],
            0u);
}

TEST(CsvParseCorpusTest, ExactMidpointsRoundToEvenInTheExactTier) {
  // 2^53 + 1 and its generated kin sit exactly between two doubles: the
  // product cannot tell them from their neighbours, so the exact tier checks
  // the midpoint in integers and rounds it to even.
  std::mt19937_64 rng(9);
  std::vector<std::string> midpoints = {"9007199254740993",
                                        "-9007199254740995",
                                        "1125899906842624.125"};
  char text[64];
  for (int i = 0; i < 20000; ++i) {
    const uint64_t odd =
        (uint64_t{1} << 53) + 1 + 2 * (rng() % (uint64_t{1} << 52));
    const int shift = static_cast<int>(rng() % 4);
    std::snprintf(text, sizeof(text), "%.*Lf", shift,
                  std::ldexp(static_cast<long double>(odd), -shift));
    midpoints.emplace_back(text);
  }
  for (const std::string& cell : midpoints) {
    double reference = 0;
    ASSERT_TRUE(StrtodVerdict(cell, &reference)) << cell;
    double value = 0;
    auto tier = internal_csv::NumericTier::kFromChars;
    ASSERT_TRUE(ReaderTakesNumeric(cell, &value, &tier)) << cell;
    EXPECT_EQ(tier, internal_csv::NumericTier::kExact) << cell;
    EXPECT_EQ(Bits(value), Bits(reference)) << cell;
  }
}

// w / 10^f spelled as a plain decimal: "0.005" for (5, 3), "123.45" for
// (12345, 2).
std::string Decimal(uint64_t mantissa, int fraction) {
  std::string digits = std::to_string(mantissa);
  if (static_cast<int>(digits.size()) <= fraction) {
    digits.insert(0, fraction + 1 - digits.size(), '0');
  }
  if (fraction > 0) digits.insert(digits.size() - fraction, ".");
  return digits;
}

TEST(CsvParseCorpusTest, ExactTierFamiliesAreStrtodBitForBit) {
  // Each family as (mantissa, fraction digits), signed at random. Every cell
  // parses to strtod's bits, in the exact tier when its mantissa has at most
  // 19 digits and at most 27 fraction digits, else in the from_chars tier.
  std::mt19937_64 rng(30);
  std::vector<std::pair<uint64_t, int>> cells;
  // 17-19-digit mantissas at every fraction length the table covers.
  for (int fraction = 1; fraction <= 27; ++fraction) {
    for (const uint64_t low : {uint64_t{10000000000000000},
                               uint64_t{100000000000000000},
                               uint64_t{1000000000000000000}}) {
      for (int i = 0; i < 1000; ++i) {
        cells.emplace_back(low + rng() % (9 * low), fraction);
      }
    }
  }
  // Mantissas at 2^53 +- k (integers on both sides of 2^53 at f = 0), just
  // under 10^19 (the longest exact mantissas) and at 2^64 - k (20 digits).
  for (int fraction = 0; fraction <= 28; ++fraction) {
    for (uint64_t k = 0; k <= 64; ++k) {
      cells.emplace_back((uint64_t{1} << 53) + k, fraction);
      cells.emplace_back((uint64_t{1} << 53) - k, fraction);
      cells.emplace_back(uint64_t{9999999999999999999u} - k, fraction);
      cells.emplace_back(~uint64_t{0} - k, fraction);
    }
  }
  // Integers of every length up to 19 digits.
  for (int i = 0; i < 20000; ++i) {
    cells.emplace_back(rng() >> (rng() % 64), 0);
  }
  // Exact double midpoints m * 2^j / 2^s for an odd m in (2^53, 2^54),
  // spelled as w / 10^s with w = m * 2^j * 5^s, and the decimals 1 in the
  // last digit either side of each.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t odd =
        (uint64_t{1} << 53) + 1 + 2 * (rng() % (uint64_t{1} << 52));
    const int fraction = static_cast<int>(rng() % 5);
    unsigned __int128 midpoint = static_cast<unsigned __int128>(odd)
                                 << (rng() % 4);
    for (int f = 0; f < fraction; ++f) midpoint *= 5;
    if (midpoint >= ~uint64_t{0}) continue;
    for (const uint64_t w : {static_cast<uint64_t>(midpoint) - 1,
                             static_cast<uint64_t>(midpoint),
                             static_cast<uint64_t>(midpoint) + 1}) {
      cells.emplace_back(w, fraction);
    }
  }
  int reported = 0;
  for (const auto& [mantissa, fraction] : cells) {
    const std::string cell = (rng() % 2 ? "-" : "") + Decimal(mantissa, fraction);
    double reference = 0;
    ASSERT_TRUE(StrtodVerdict(cell, &reference)) << cell;
    double value = 0;
    auto tier = internal_csv::NumericTier::kFromChars;
    const bool taken = ReaderTakesNumeric(cell, &value, &tier);
    const bool exact =
        std::to_string(mantissa).size() <= 19 && fraction <= 27;
    if ((!taken || Bits(value) != Bits(reference) ||
         tier != (exact ? internal_csv::NumericTier::kExact
                        : internal_csv::NumericTier::kFromChars)) &&
        reported++ < 10) {
      ADD_FAILURE() << "cell '" << cell << "': strtod " << reference
                    << ", reader " << (taken ? "takes " : "declines ")
                    << value << " (tier " << static_cast<int>(tier) << ")";
    }
  }
  EXPECT_EQ(reported, 0);
}

TEST(CsvParseCorpusTest, TwentyDigitMantissasDeclineTheExactTiers) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    std::string cell = std::to_string(1 + rng() % 9) + RandomDigits(&rng, 19);
    cell.insert(rng() % (cell.size() + 1), ".");
    if (cell.front() == '.') cell.insert(0, "0");
    double reference = 0;
    ASSERT_TRUE(StrtodVerdict(cell, &reference)) << cell;
    double value = 0;
    auto tier = internal_csv::NumericTier::kExact;
    ASSERT_TRUE(ReaderTakesNumeric(cell, &value, &tier)) << cell;
    EXPECT_EQ(tier, internal_csv::NumericTier::kFromChars) << cell;
    EXPECT_EQ(Bits(value), Bits(reference)) << cell;
  }
}

TEST(CsvParseCorpusTest, FastCategoricalPathIsStrtolExactly) {
  std::mt19937_64 rng(7);
  int reported = 0;
  for (int i = 0; i < 200000; ++i) {
    // Codes with leading zeros, signs, spaces and overflowing lengths.
    static const char* kPrefixes[] = {"", "", "", "0", "00", "-", "+", " "};
    const std::string cell =
        kPrefixes[rng() % 8] +
        RandomDigits(&rng, 1 + static_cast<int>(rng() % 21));
    const uint32_t domain = 1 + static_cast<uint32_t>(rng() % 4096);
    char* end = nullptr;
    errno = 0;
    const long code = std::strtol(cell.c_str(), &end, 10);
    const bool strtol_accepts = end != cell.c_str() && *end == '\0' &&
                                errno != ERANGE && code >= 0 &&
                                static_cast<uint64_t>(code) < domain;
    // As NextRow calls it: the line goes on past the cell.
    const std::string line = cell + ",3";
    uint32_t fast = 0;
    const char* const stop = internal_csv::ParseCategoricalPrefix(
        line.data(), line.data() + line.size(), domain, &fast);
    const bool fast_accepts = stop == line.data() + cell.size();
    const bool ok = fast_accepts
                        ? strtol_accepts && static_cast<long>(fast) == code
                        : cell[0] == '-' || cell[0] == '+' || cell[0] == ' ' ||
                              !strtol_accepts;
    if (!ok && reported++ < 10) {
      ADD_FAILURE() << "cell '" << cell << "' domain " << domain;
    }
  }
  EXPECT_EQ(reported, 0);
}

}  // namespace
}  // namespace ldp::data
