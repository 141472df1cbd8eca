// CSV import/export for Dataset: a header row of column names followed by
// one row per tuple; numeric cells as decimal literals, categorical cells as
// their integer codes. Lets users bring their own extracts (e.g. real IPUMS
// data they are licensed for) into the collection pipeline.
//
// Two read surfaces: ReadCsv materializes the whole table into a Dataset;
// CsvRowReader streams one validated row at a time, for pipelines that must
// not hold millions of rows in memory (tools/ldp_report privatizes each row
// as it arrives). ReadCsv is implemented over CsvRowReader, so the two can
// never diverge on what they accept.
//
// Reading is block-buffered. A CsvRowReader (and CountCsvDataRows) owns
// exactly one read buffer over a raw file descriptor: 8 KiB, grown only to
// hold a single line longer than that. Lines are found with memchr, and each
// row is parsed in one walk over a column plan built at Open (each column's
// kind and domain): every cell is parsed where it starts and must stop at
// its own ',' (or the line's end), so a steady-state row costs no heap
// allocation and no separate split. Numeric cells go through three tiers,
// under one contract: a tier never accepts a cell strtod would refuse, and
// returns strtod's bits when it accepts.
//   1. Plain -?D+(.D*)? cells with at most 19 significant digits and at
//      most 27 fraction digits are exact. Their digits are read eight bytes
//      at a time into a mantissa w and a fraction digit count f. An integer
//      up to 2^53 converts as it is; any other cell is Eisel-Lemire's w/10^f:
//      w times a 128-bit 10^-f rounded up, whose top bits are the double and
//      its rounding, ties to even. A product too close to a midpoint to
//      decide declines the tier.
//   2. Everything else goes to std::from_chars, which keeps only exact zeros
//      and magnitudes strictly between DBL_MIN and DBL_MAX.
//   3. Any cell neither takes whole (leading whitespace or '+', hex floats,
//      inf/nan, subnormals, values at or past DBL_MIN/DBL_MAX, overflow,
//      underflow to zero) is handed to strtod on a copy, which decides its
//      verdict and error text exactly as a std::getline + strtod reader
//      would.
// Categorical cells are a digit loop below the domain size, else strtol on
// a copy (leading whitespace or a sign, "-0", codes at or past the domain).
// A one-digit cell of either kind, followed by ',' or the line's end, is
// read at once.

#ifndef LDP_DATA_CSV_H_
#define LDP_DATA_CSV_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::data {

/// Writes `dataset` to `path`, overwriting any existing file. Numeric cells
/// are spelled as printf's %.17g (an ostream's at precision 17), which reads
/// back bit for bit.
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a CSV written in the format above. The file's header must match
/// `schema`'s column names exactly (order included); cells are validated
/// against the schema (numeric parseable and finite, categorical codes in
/// range).
Result<Dataset> ReadCsv(const Schema& schema, const std::string& path);

/// Counts data rows (non-empty lines after the header row) without
/// validating them — the cheap first pass the streaming tools use to fix
/// shard/chunk boundaries before the row-at-a-time privatizing pass. Uses
/// the same line scanner as CsvRowReader, so both agree on which lines are
/// rows. Fails on a missing or empty file.
Result<uint64_t> CountCsvDataRows(const std::string& path);

namespace internal_csv {

/// The line source behind CsvRowReader and CountCsvDataRows: one reused
/// read buffer over a file descriptor. Lines split exactly as std::getline
/// splits them: on '\n' only (a '\r' stays in the line), and a final line
/// with no newline still counts.
class LineScanner {
 public:
  static constexpr size_t kBlockBytes = 8192;

  /// Opens `path` and sets `*header` to its first line, valid until the
  /// first Next(). Fails on a missing or empty file.
  static Result<LineScanner> Open(const std::string& path,
                                  std::string_view* header);

  LineScanner(LineScanner&& other) noexcept;
  LineScanner& operator=(LineScanner&&) = delete;
  ~LineScanner();

  /// Sets `*line` to the next line, without its '\n'. The view is valid
  /// until the next call. Returns false at end of file.
  Result<bool> Next(std::string_view* line);

 private:
  explicit LineScanner(int fd);

  int fd_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first byte not yet returned
  size_t end_ = 0;    // one past the last byte read
  bool eof_ = false;
};

/// Which tier of ParseNumericPrefix took a cell (for tests).
enum class NumericTier { kExact, kFromChars };

/// The cell parsers CsvRowReader::NextRow calls where each cell starts,
/// with `end` the end of the line. Each returns one past the last character
/// it read, or nullptr to decline; the reader takes the value only when that
/// stop is the cell's end (its ',' or the line's end). Whatever the reader
/// takes is the value strtod/strtol returns for the cell, and every cell
/// strtod/strtol would accept, except those the header comment names,
/// parses whole. A decline or an early stop means "take the strtod/strtol
/// fallback", never "refuse".
const char* ParseNumericPrefix(const char* begin, const char* end,
                               double* value, NumericTier* tier = nullptr);
const char* ParseCategoricalPrefix(const char* begin, const char* end,
                                   uint32_t domain_size, uint32_t* code);

}  // namespace internal_csv

/// Streaming row-at-a-time CSV reader over the same format and validation
/// rules as ReadCsv, with O(1) memory in the row count. Empty lines are
/// skipped, exactly as in ReadCsv.
class CsvRowReader {
 public:
  /// Opens `path` and validates its header row against `schema`; fails on a
  /// missing file, an empty file, or any header mismatch. `schema` must
  /// outlive the reader.
  static Result<CsvRowReader> Open(const Schema& schema,
                                   const std::string& path);

  /// Reads the next data row. Both output vectors are resized to one slot
  /// per schema column: a numeric column fills its `numeric` slot, a
  /// categorical column its `category` slot (the sibling slot is zeroed).
  /// Returns true when a row was read, false on clean end of file, and an
  /// error on a malformed row (reported with its data-row index, matching
  /// ReadCsv).
  Result<bool> NextRow(std::vector<double>* numeric,
                       std::vector<uint32_t>* category);

  /// Data rows successfully returned so far.
  uint64_t rows_read() const { return rows_read_; }

 private:
  CsvRowReader(const Schema* schema, internal_csv::LineScanner lines);

  // Reads column `col`'s cell, which starts at `cell` in `line`, as the
  // strtod/strtol fallback does, and returns where it stops: the cell's ','
  // or the line's end. Fails on a bad cell or a wrong cell count.
  Result<const char*> FallbackCell(std::string_view line, size_t col,
                                   const char* cell, double* value,
                                   uint32_t* code) const;

  // The refusal for a data line whose cell count is not the schema's.
  Status CellCountError(std::string_view line) const;

  const Schema* schema_;
  // The column plan: per column, 0 when numeric, else the categorical
  // domain size (which Schema::Create keeps at 2 or more).
  std::vector<uint32_t> domains_;
  internal_csv::LineScanner lines_;
  uint64_t rows_read_ = 0;
};

}  // namespace ldp::data

#endif  // LDP_DATA_CSV_H_
