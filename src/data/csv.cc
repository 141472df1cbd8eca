#include "data/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
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

namespace {

constexpr bool IsDigit(char c) {
  return static_cast<unsigned char>(c - '0') < 10;
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kLittleEndian = true;
#else
constexpr bool kLittleEndian = false;
#endif

constexpr uint64_t kPow10U64[] = {1,      10,      100,      1000,     10000,
                                  100000, 1000000, 10000000, 100000000};

// The run of ASCII digits that starts eight bytes read little-endian (the
// first byte lowest): its length, and its value. A byte is a digit when
// XOR '0' leaves it at most 9; the lowest byte that is not marks the end.
// A carry out of a non-digit byte can only mark bytes after it.
[[gnu::always_inline]] inline int DigitRun(uint64_t chunk, uint64_t* value) {
  const uint64_t digits = chunk ^ 0x3030303030303030;
  const uint64_t not_digit =
      ((digits + 0x7676767676767676) | digits) & 0x8080808080808080;
  const int length = not_digit == 0 ? 8 : __builtin_ctzll(not_digit) / 8;
  if (length == 0) return 0;
  // The run moved to the top bytes reads as eight digits with leading
  // zeros; Lemire's SWAR reduction folds them in three multiplies.
  uint64_t run = digits << (8 * (8 - length));
  run = run * 10 + (run >> 8);
  run = (((run & 0x000000FF000000FF) * 0x000F424000000064) +
         (((run >> 16) & 0x000000FF000000FF) * 0x0000271000000001)) >>
        32;
  *value = run & 0xFFFFFFFF;
  return length;
}

// Appends the digits at `*at` to `*mantissa` and moves `*at` past them,
// eight bytes at a time while eight are there. Returns how many it read.
// The mantissa wraps past 19 digits; the caller then declines it.
[[gnu::always_inline]] inline size_t ReadDigits(const char** at,
                                                const char* end,
                                                uint64_t* mantissa) {
  const char* const start = *at;
  const char* p = start;
  uint64_t m = *mantissa;
  if constexpr (kLittleEndian) {
    while (end - p >= 8) {
      uint64_t chunk;
      std::memcpy(&chunk, p, sizeof(chunk));
      uint64_t run = 0;
      const int length = DigitRun(chunk, &run);
      m = m * kPow10U64[length] + run;
      p += length;
      if (length < 8) {
        *mantissa = m;
        *at = p;
        return static_cast<size_t>(p - start);
      }
    }
  }
  while (p != end && IsDigit(*p)) {
    m = m * 10 + static_cast<uint64_t>(*p++ - '0');
  }
  *mantissa = m;
  *at = p;
  return static_cast<size_t>(p - start);
}

// 10^0 .. 10^22: every power of ten a double holds exactly.
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// The exact long double tier needs x87's 64-bit significand, read as the
// low 8 bytes of the object: 10^0 .. 10^27 and every 19-digit mantissa are
// exact in it.
constexpr bool kExtendedTier =
    kLittleEndian && std::numeric_limits<long double>::digits == 64;
constexpr long double kExactPow10L[] = {
    1e0L,  1e1L,  1e2L,  1e3L,  1e4L,  1e5L,  1e6L,  1e7L,  1e8L,  1e9L,
    1e10L, 1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L,
    1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

// The from_chars tier, with strtod's range verdicts: [begin, ptr) must read
// as an exact zero or a magnitude strictly between DBL_MIN and DBL_MAX.
const char* FromCharsPrefix(const char* begin, const char* end,
                            double* value) {
  double parsed = 0.0;
  const std::from_chars_result result = std::from_chars(begin, end, parsed);
  if (result.ec != std::errc{}) return nullptr;
  if (parsed == 0.0) {
    // Exact zeros only: a nonzero mantissa read as zero is strtod's ERANGE.
    // libstdc++ already reports that underflow as out of range, but the
    // standard leaves it to the library.
    for (const char* at = begin; at != result.ptr; ++at) {
      if (*at == 'e' || *at == 'E') break;
      if (*at >= '1' && *at <= '9') return nullptr;
    }
  } else {
    // strtod flags ERANGE on every result below DBL_MIN before rounding,
    // which includes some that round up to DBL_MIN; inf and nan are refused.
    const double magnitude = std::fabs(parsed);
    if (!(magnitude > std::numeric_limits<double>::min() &&
          magnitude < std::numeric_limits<double>::max())) {
      return nullptr;
    }
  }
  *value = parsed;
  return result.ptr;
}

}  // namespace

const char* ParseNumericPrefix(const char* begin, const char* end,
                               double* value, NumericTier* tier) {
  // The exact tiers take -?D+(.D*)? with at most 19 significant digits: the
  // mantissa m fits a uint64 and the value is m / 10^f for f fraction digits.
  const char* at = begin;
  const bool negative = at != end && *at == '-';
  at += negative;
  const char* const digits = at;
  uint64_t mantissa = 0;
  size_t total = ReadDigits(&at, end, &mantissa);
  const char* point = nullptr;
  size_t fraction = 0;
  if (total != 0 && at != end && *at == '.') {
    point = at++;
    fraction = ReadDigits(&at, end, &mantissa);
    total += fraction;
  }
  size_t significant = total;
  if (total > 19) {  // leading zeros are not significant
    const char* first = digits;
    while (first != at && (*first == '0' || *first == '.')) ++first;
    significant =
        static_cast<size_t>(at - first) - (point != nullptr && point >= first);
  }
  if (total != 0 && significant <= 19 &&
      !(at != end && (*at == 'e' || *at == 'E'))) {
#if FLT_EVAL_METHOD == 0
    // Clinger's fast path: both operands exact, one correctly rounded
    // division.
    if (mantissa <= (uint64_t{1} << 53) && fraction <= 22) {
      const double quotient =
          static_cast<double>(mantissa) / kExactPow10[fraction];
      *value = negative ? -quotient : quotient;
      if (tier != nullptr) *tier = NumericTier::kExactDouble;
      return at;
    }
#endif
    if constexpr (kExtendedTier) {
      if (fraction <= 27) {
        // Both operands exact in 64 bits, so the quotient is m / 10^f
        // correctly rounded to 64 bits; rounding that to 53 bits gives the
        // correctly rounded double unless it sits exactly on a double
        // midpoint (its 11 extra bits 0x400), where it may have been rounded
        // onto the midpoint from either side.
        const long double quotient =
            static_cast<long double>(mantissa) / kExactPow10L[fraction];
        uint64_t significand;
        std::memcpy(&significand, &quotient, sizeof(significand));
        if ((significand & 0x7FF) != 0x400) {
          const double rounded = static_cast<double>(quotient);
          *value = negative ? -rounded : rounded;
          if (tier != nullptr) *tier = NumericTier::kExactLongDouble;
          return at;
        }
      }
    }
  }
  if (tier != nullptr) *tier = NumericTier::kFromChars;
  return FromCharsPrefix(begin, end, value);
}

const char* ParseCategoricalPrefix(const char* begin, const char* end,
                                   uint32_t domain_size, uint32_t* code) {
  uint64_t parsed = 0;
  const char* at = begin;
  while (at != end && IsDigit(*at)) {
    parsed = parsed * 10 + static_cast<uint64_t>(*at++ - '0');
    if (parsed >= domain_size) return nullptr;
  }
  if (at == begin) return nullptr;
  *code = static_cast<uint32_t>(parsed);
  return at;
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

// A non-empty line's cell count: one more than its commas.
size_t CountCells(std::string_view line) {
  return 1 + static_cast<size_t>(std::count(line.begin(), line.end(), ','));
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
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + path);
  }
  // Rows are spelled into one buffer, written out each time it reaches
  // kFlushBytes.
  constexpr size_t kFlushBytes = 1 << 16;
  constexpr size_t kCellBytes = 32;  // "-2.2250738585072014e-308" is 24
  std::string buffer;
  buffer.reserve(kFlushBytes + kCellBytes);
  bool written = true;
  const auto flush = [&] {
    for (size_t done = 0; written && done < buffer.size();) {
      const ssize_t wrote =
          ::write(fd, buffer.data() + done, buffer.size() - done);
      if (wrote > 0) {
        done += static_cast<size_t>(wrote);
      } else if (wrote == 0 || errno != EINTR) {
        written = false;
      }
    }
    buffer.clear();
  };
  char cell[kCellBytes];
  const Schema& schema = dataset.schema();
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    if (col > 0) buffer += ',';
    buffer += schema.column(col).name;
  }
  buffer += '\n';
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    for (uint32_t col = 0; col < schema.num_columns(); ++col) {
      if (col > 0) buffer += ',';
      const std::to_chars_result spelled =
          schema.column(col).type == ColumnType::kNumeric
              ? std::to_chars(cell, cell + kCellBytes,
                              dataset.numeric(row, col),
                              std::chars_format::general, 17)
              : std::to_chars(cell, cell + kCellBytes,
                              dataset.category(row, col));
      buffer.append(cell, spelled.ptr);
    }
    buffer += '\n';
    if (buffer.size() >= kFlushBytes) flush();
  }
  flush();
  if (::close(fd) != 0) written = false;
  if (!written) {
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
  std::vector<std::string_view> header;
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
  return CsvRowReader(&schema, std::move(lines).value());
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
  // One walk over the line: each cell parses where it starts, and the parse
  // must stop exactly at the cell's ',' (or the line's end, for the last).
  // Any other cell goes to strtod/strtol on a copy of its text. A wrong cell
  // count wins over a bad cell, as when the line was split first.
  const std::vector<ColumnSpec>& columns = schema_->columns();
  const size_t width = columns.size();
  numeric->resize(width);
  category->resize(width);
  if (width == 0) return CellCountError(line);  // a line holds a cell
  const char* cell = line.data();
  const char* const end = cell + line.size();
  for (size_t col = 0; col < width; ++col) {
    const ColumnSpec& spec = columns[col];
    const bool numeric_cell = spec.type == ColumnType::kNumeric;
    double* const value = &(*numeric)[col];
    uint32_t* const code = &(*category)[col];
    const char* stop;
    if (numeric_cell) {
      *code = 0;
      stop = internal_csv::ParseNumericPrefix(cell, end, value);
    } else {
      *value = 0.0;
      stop = internal_csv::ParseCategoricalPrefix(cell, end, spec.domain_size,
                                                  code);
    }
    const bool last = col + 1 == width;
    if (stop == nullptr ||
        (last ? stop != end : stop == end || *stop != ',')) {
      stop = static_cast<const char*>(std::memchr(cell, ',', end - cell));
      if (stop == nullptr) stop = end;
      if ((stop == end) != last) return CellCountError(line);
      const std::string text(cell, stop);
      const bool parsed =
          numeric_cell
              ? StrtodNumericCell(text, value)
              : StrtolCategoricalCell(text, spec.domain_size, code);
      if (!parsed) {
        if (CountCells(line) != width) return CellCountError(line);
        return Status::InvalidArgument(
            "row " + std::to_string(rows_read_) + ", column '" + spec.name +
            "': bad " + (numeric_cell ? "numeric" : "categorical") +
            " cell '" + text + "'");
      }
    }
    if (!last) cell = stop + 1;
  }
  ++rows_read_;
  return true;
}

Status CsvRowReader::CellCountError(std::string_view line) const {
  return Status::InvalidArgument(
      "row " + std::to_string(rows_read_) + " has " +
      std::to_string(CountCells(line)) + " cells, expected " +
      std::to_string(schema_->num_columns()));
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
