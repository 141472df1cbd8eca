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
// hold a single line longer than that. Lines are found with memchr, and the
// header and every row split into std::string_view cells of that buffer, so
// a steady-state row costs no heap allocation. Cells parse with
// std::from_chars under one contract: the fast path never accepts a cell
// strtod/strtol would refuse, and returns the same bits when it accepts. Any
// cell it does not take whole (leading whitespace or '+', hex floats, "-0"
// as a code, inf/nan, subnormals, values at or past DBL_MIN/DBL_MAX,
// overflow) is handed to strtod/strtol on a copy, which decides its verdict
// and error text exactly as a std::getline + strtod reader would.

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

/// Writes `dataset` to `path`, overwriting any existing file.
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

/// The reader's from_chars fast paths, exposed for tests. Each returns true
/// only for a cell strtod/strtol parses whole to the same accepted value;
/// false means "take the strtod/strtol fallback", never "refuse".
bool FastNumericCell(std::string_view cell, double* value);
bool FastCategoricalCell(std::string_view cell, uint32_t domain_size,
                         uint32_t* code);

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
  CsvRowReader(const Schema* schema, internal_csv::LineScanner lines)
      : schema_(schema), lines_(std::move(lines)) {}

  const Schema* schema_;
  internal_csv::LineScanner lines_;
  uint64_t rows_read_ = 0;
  std::vector<std::string_view> cells_;  // reused; slices of lines_' buffer
};

}  // namespace ldp::data

#endif  // LDP_DATA_CSV_H_
