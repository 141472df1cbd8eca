#include "data/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace ldp::data {

namespace internal_csv {

Result<LineScanner> LineScanner::Open(const std::string& path,
                                      std::string_view* header) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path);
  }
  LineScanner lines(fd);
  Result<bool> more = lines.Next(header);
  if (!more.ok()) {
    return Status::IoError("read error on " + path + ": " +
                           more.status().message());
  }
  if (!more.value()) {
    return Status::IoError("empty file: " + path);
  }
  return lines;
}

LineScanner::LineScanner(int fd) : fd_(fd), buffer_(kBlockBytes) {}

LineScanner::LineScanner(LineScanner&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      begin_(other.begin_),
      end_(other.end_),
      eof_(other.eof_) {}

LineScanner::~LineScanner() {
  if (fd_ >= 0) ::close(fd_);
}

Result<bool> LineScanner::Next(std::string_view* line) {
  size_t scanned = begin_;  // [begin_, scanned) holds no '\n'
  for (;;) {
    const void* newline =
        std::memchr(buffer_.data() + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const size_t at = static_cast<const char*>(newline) - buffer_.data();
      *line = std::string_view(buffer_.data() + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(buffer_.data() + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Move the partial line to the front and read behind it; only a line
    // that fills the whole buffer grows it.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    scanned = end_;
    if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
    const ssize_t got =
        ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::strerror(errno));
    }
    if (got == 0) eof_ = true;
    end_ += static_cast<size_t>(got);
  }
}

bool FastNumericCell(std::string_view cell, double* value) {
  const char* const end = cell.data() + cell.size();
  double parsed = 0.0;
  const std::from_chars_result result =
      std::from_chars(cell.data(), end, parsed);
  if (result.ec != std::errc{} || result.ptr != end) return false;
  if (parsed == 0.0) {
    // Exact zeros only: a nonzero mantissa read as zero is strtod's ERANGE.
    // libstdc++ already reports that underflow as out of range, but the
    // standard leaves it to the library.
    for (const char digit : cell) {
      if (digit == 'e' || digit == 'E') break;
      if (digit >= '1' && digit <= '9') return false;
    }
  } else {
    // strtod flags ERANGE on every result below DBL_MIN before rounding,
    // which includes some that round up to DBL_MIN; inf and nan are refused.
    const double magnitude = std::fabs(parsed);
    if (!(magnitude > std::numeric_limits<double>::min() &&
          magnitude < std::numeric_limits<double>::max())) {
      return false;
    }
  }
  *value = parsed;
  return true;
}

bool FastCategoricalCell(std::string_view cell, uint32_t domain_size,
                         uint32_t* code) {
  const char* const end = cell.data() + cell.size();
  uint32_t parsed = 0;
  const std::from_chars_result result =
      std::from_chars(cell.data(), end, parsed);
  if (result.ec != std::errc{} || result.ptr != end || parsed >= domain_size) {
    return false;
  }
  *code = parsed;
  return true;
}

}  // namespace internal_csv

namespace {

// Splits a line as std::getline(stream, cell, ',') plus a trailing-comma
// cell would: an empty line has no cells, n commas otherwise give n + 1.
void SplitCells(std::string_view line, std::vector<std::string_view>* cells) {
  cells->clear();
  if (line.empty()) return;
  const char* cell = line.data();
  const char* const end = line.data() + line.size();
  for (const char* at = cell; at != end; ++at) {
    if (*at == ',') {
      cells->emplace_back(cell, at - cell);
      cell = at + 1;
    }
  }
  cells->emplace_back(cell, end - cell);
}

// The fallbacks for every cell the fast paths decline: strtod/strtol on a
// NUL-terminated copy, so an embedded NUL ends the cell as it always has.
bool StrtodNumericCell(const std::string& cell, double* value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

bool StrtolCategoricalCell(const std::string& cell, uint32_t domain_size,
                           uint32_t* code) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(cell.c_str(), &end, 10);
  if (end == cell.c_str() || *end != '\0' || errno == ERANGE || parsed < 0 ||
      static_cast<uint64_t>(parsed) >= domain_size) {
    return false;
  }
  *code = static_cast<uint32_t>(parsed);
  return true;
}

}  // namespace

Result<uint64_t> CountCsvDataRows(const std::string& path) {
  std::string_view line;
  Result<internal_csv::LineScanner> lines =
      internal_csv::LineScanner::Open(path, &line);
  if (!lines.ok()) return lines.status();
  uint64_t rows = 0;
  for (;;) {
    Result<bool> more = lines.value().Next(&line);
    if (!more.ok()) {
      return Status::IoError("read error on " + path + ": " +
                             more.status().message());
    }
    if (!more.value()) return rows;
    if (!line.empty()) ++rows;
  }
}

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const Schema& schema = dataset.schema();
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    if (col > 0) out << ',';
    out << schema.column(col).name;
  }
  out << '\n';
  out.precision(17);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    for (uint32_t col = 0; col < schema.num_columns(); ++col) {
      if (col > 0) out << ',';
      if (schema.column(col).type == ColumnType::kNumeric) {
        out << dataset.numeric(row, col);
      } else {
        out << dataset.category(row, col);
      }
    }
    out << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

Result<CsvRowReader> CsvRowReader::Open(const Schema& schema,
                                        const std::string& path) {
  std::string_view line;
  Result<internal_csv::LineScanner> lines =
      internal_csv::LineScanner::Open(path, &line);
  if (!lines.ok()) return lines.status();
  CsvRowReader reader(&schema, std::move(lines).value());
  std::vector<std::string_view>& header = reader.cells_;
  SplitCells(line, &header);
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument("header has " +
                                   std::to_string(header.size()) +
                                   " columns, schema expects " +
                                   std::to_string(schema.num_columns()));
  }
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    if (header[col] != schema.column(col).name) {
      return Status::InvalidArgument(
          "header column " + std::to_string(col) + " is '" +
          std::string(header[col]) + "', expected '" +
          schema.column(col).name + "'");
    }
  }
  return reader;
}

Result<bool> CsvRowReader::NextRow(std::vector<double>* numeric,
                                   std::vector<uint32_t>* category) {
  std::string_view line;
  for (;;) {
    Result<bool> more = lines_.Next(&line);
    if (!more.ok()) {
      return Status::IoError("read error after row " +
                             std::to_string(rows_read_) + ": " +
                             more.status().message());
    }
    if (!more.value()) return false;
    if (!line.empty()) break;
  }
  SplitCells(line, &cells_);
  if (cells_.size() != schema_->num_columns()) {
    return Status::InvalidArgument(
        "row " + std::to_string(rows_read_) + " has " +
        std::to_string(cells_.size()) + " cells, expected " +
        std::to_string(schema_->num_columns()));
  }
  numeric->assign(schema_->num_columns(), 0.0);
  category->assign(schema_->num_columns(), 0);
  for (uint32_t col = 0; col < schema_->num_columns(); ++col) {
    const ColumnSpec& spec = schema_->column(col);
    const std::string_view cell = cells_[col];
    const bool numeric_cell = spec.type == ColumnType::kNumeric;
    double* value = &(*numeric)[col];
    uint32_t* code = &(*category)[col];
    const bool parsed =
        numeric_cell
            ? internal_csv::FastNumericCell(cell, value) ||
                  StrtodNumericCell(std::string(cell), value)
            : internal_csv::FastCategoricalCell(cell, spec.domain_size,
                                                code) ||
                  StrtolCategoricalCell(std::string(cell), spec.domain_size,
                                        code);
    if (!parsed) {
      return Status::InvalidArgument(
          "row " + std::to_string(rows_read_) + ", column '" + spec.name +
          "': bad " + (numeric_cell ? "numeric" : "categorical") + " cell '" +
          std::string(cell) + "'");
    }
  }
  ++rows_read_;
  return true;
}

Result<Dataset> ReadCsv(const Schema& schema, const std::string& path) {
  Result<CsvRowReader> reader = CsvRowReader::Open(schema, path);
  if (!reader.ok()) return reader.status();
  Dataset dataset(schema);
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  for (;;) {
    bool more = false;
    LDP_ASSIGN_OR_RETURN(more, reader.value().NextRow(&numeric, &category));
    if (!more) break;
    const uint64_t row = reader.value().rows_read() - 1;
    dataset.Resize(row + 1);
    for (uint32_t col = 0; col < schema.num_columns(); ++col) {
      if (schema.column(col).type == ColumnType::kNumeric) {
        dataset.set_numeric(row, col, numeric[col]);
      } else {
        dataset.set_category(row, col, category[col]);
      }
    }
  }
  return dataset;
}

}  // namespace ldp::data
