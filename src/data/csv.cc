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
#include <iterator>
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

// 10^-f for f = 0..27 as w/10^f reads it: the 128-bit 2^(127+e) / 10^f
// rounded up, where e = f + ceil(log2 5^f) puts its top bit at bit 127.
struct Pow10Inverse {
  uint64_t high;
  uint64_t low;
  int e;
};
constexpr Pow10Inverse kPow10Inverse[] = {
    {0x8000000000000000, 0x0000000000000000, 0},
    {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD, 4},
    {0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A4, 7},
    {0x83126E978D4FDF3B, 0x645A1CAC083126EA, 10},
    {0xD1B71758E219652B, 0xD3C36113404EA4A9, 14},
    {0xA7C5AC471B478423, 0x0FCF80DC33721D54, 17},
    {0x8637BD05AF6C69B5, 0xA63F9A49C2C1B110, 20},
    {0xD6BF94D5E57A42BC, 0x3D32907604691B4D, 24},
    {0xABCC77118461CEFC, 0xFDC20D2B36BA7C3E, 27},
    {0x89705F4136B4A597, 0x31680A88F8953031, 30},
    {0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1C, 34},
    {0xAFEBFF0BCB24AAFE, 0xF78F69A51539D749, 37},
    {0x8CBCCC096F5088CB, 0xF93F87B7442E45D4, 40},
    {0xE12E13424BB40E13, 0x2865A5F206B06FBA, 44},
    {0xB424DC35095CD80F, 0x538484C19EF38C95, 47},
    {0x901D7CF73AB0ACD9, 0x0F9D37014BF60A11, 50},
    {0xE69594BEC44DE15B, 0x4C2EBE687989A9B4, 54},
    {0xB877AA3236A4B449, 0x09BEFEB9FAD487C3, 57},
    {0x9392EE8E921D5D07, 0x3AFF322E62439FD0, 60},
    {0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E6, 64},
    {0xBCE5086492111AEA, 0x88F4BB1CA6BCF585, 67},
    {0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E04, 70},
    {0xF1C90080BAF72CB1, 0x5324C68B12DD6339, 74},
    {0xC16D9A0095928A27, 0x75B7053C0F178294, 77},
    {0x9ABE14CD44753B52, 0xC4926A9672793543, 80},
    {0xF79687AED3EEC551, 0x3A83DDBD83F52205, 84},
    {0xC612062576589DDA, 0x95364AFE032A819E, 87},
    {0x9E74D1B791E07E48, 0x775EA264CF55347E, 90}};
constexpr size_t kMaxExactFraction = std::size(kPow10Inverse) - 1;

// Eisel-Lemire: the bits of the double nearest w / 10^f, for 0 < w < 2^64
// and f <= kMaxExactFraction. Returns false, undecided, when the product is
// too close to a midpoint to tell which way w / 10^f rounds.
[[gnu::always_inline]] inline bool EiselLemire(uint64_t w, size_t f,
                                              uint64_t* bits) {
  using U128 = unsigned __int128;
  const Pow10Inverse& inverse = kPow10Inverse[f];
  const int shift = __builtin_clzll(w);
  const uint64_t n = w << shift;
  // P = n * inverse, 192 bits, as top (bits 128..191) and middle (64..127).
  // It is at most n < 2^64 above the exact n * 2^(127+e) / 10^f.
  const U128 upper = static_cast<U128>(n) * inverse.high;
  const U128 lower = static_cast<U128>(n) * inverse.low;
  const uint64_t middle =
      static_cast<uint64_t>(upper) + static_cast<uint64_t>(lower >> 64);
  const uint64_t top = static_cast<uint64_t>(upper >> 64) +
                       (middle < static_cast<uint64_t>(upper));
  // P's top bit is bit 190 + u. The double's 53 bits are P's bits 138 + u
  // and up, and bit 137 + u is its round bit.
  const int u = static_cast<int>(top >> 63);
  uint64_t mantissa = top >> (10 + u);
  const uint64_t round = (top >> (9 + u)) & 1;
  const uint64_t below_round = (top & ((uint64_t{1} << (9 + u)) - 1)) | middle;
  if (__builtin_expect(round != 0 && below_round == 0, 0)) {
    // P is less than 2^64 past the midpoint (2 * mantissa + 1) * 2^(137+u),
    // which leaves w / 10^f on either side of it unless it is exactly the
    // midpoint: w == (2 * mantissa + 1) * 5^f * 2^g. That needs w >= 2^53 *
    // 5^f, so f <= 4.
    const int g = 10 + u - shift - (inverse.e - static_cast<int>(f));
    if (f > 4 || g < 0 || (w >> g) << g != w ||
        w >> g != (2 * mantissa + 1) * (kPow10U64[f] >> f)) {
      return false;
    }
    mantissa += mantissa & 1;  // ties to even
  } else {
    // Clear of the midpoint by 2^64 or more (or below it), so w / 10^f is
    // on P's side of it.
    mantissa += round;
  }
  // The value is mantissa * 2^(11 + u - shift - e), mantissa in [2^52, 2^53]
  // (2^53 carries into the exponent), and always normal: 1e-27 <= w / 10^f
  // < 1e19.
  const int exponent = 11 + u - shift - inverse.e;
  *bits = (static_cast<uint64_t>(exponent + 1075) << 52) + mantissa -
          (uint64_t{1} << 52);
  return true;
}

// The from_chars tier, with strtod's range verdicts: [begin, ptr) must read
// as zero or a magnitude strictly between DBL_MIN and DBL_MAX. (libstdc++
// reports a nonzero mantissa that underflows to zero as out of range.)
const char* FromCharsPrefix(const char* begin, const char* end,
                            double* value) {
  double parsed = 0.0;
  const std::from_chars_result result = std::from_chars(begin, end, parsed);
  if (result.ec != std::errc{}) return nullptr;
  // strtod flags ERANGE on every result below DBL_MIN before rounding,
  // which includes some that round up to DBL_MIN; inf and nan are refused.
  const double magnitude = std::fabs(parsed);
  if (parsed != 0.0 && !(magnitude > std::numeric_limits<double>::min() &&
                         magnitude < std::numeric_limits<double>::max())) {
    return nullptr;
  }
  *value = parsed;
  return result.ptr;
}

// ParseNumericPrefix, inlined into NextRow's column loop.
[[gnu::always_inline]] inline const char* ParseNumeric(const char* begin,
                                                       const char* end,
                                                       double* value,
                                                       NumericTier* tier) {
  // The exact tier takes -?D+(.D*)? with at most 19 significant digits: the
  // mantissa w fits a uint64 and the value is w / 10^f for f fraction digits.
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
  if (total != 0 && significant <= 19 && fraction <= kMaxExactFraction &&
      !(at != end && (*at == 'e' || *at == 'E'))) {
    uint64_t bits = 0;  // a zero mantissa reads as a zero
    bool decided = true;
    if (fraction == 0 && mantissa <= (uint64_t{1} << 53)) {
      const double integer = static_cast<double>(mantissa);
      std::memcpy(&bits, &integer, sizeof(bits));
    } else if (mantissa != 0) {
      decided = EiselLemire(mantissa, fraction, &bits);
    }
    if (decided) {
      bits |= static_cast<uint64_t>(negative) << 63;
      std::memcpy(value, &bits, sizeof(bits));
      if (tier != nullptr) *tier = NumericTier::kExact;
      return at;
    }
  }
  if (tier != nullptr) *tier = NumericTier::kFromChars;
  return FromCharsPrefix(begin, end, value);
}

// ParseCategoricalPrefix, inlined into NextRow's column loop.
[[gnu::always_inline]] inline const char* ParseCategorical(
    const char* begin, const char* end, uint32_t domain_size,
    uint32_t* code) {
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

}  // namespace

const char* ParseNumericPrefix(const char* begin, const char* end,
                               double* value, NumericTier* tier) {
  return ParseNumeric(begin, end, value, tier);
}

const char* ParseCategoricalPrefix(const char* begin, const char* end,
                                   uint32_t domain_size, uint32_t* code) {
  return ParseCategorical(begin, end, domain_size, code);
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

CsvRowReader::CsvRowReader(const Schema* schema,
                           internal_csv::LineScanner lines)
    : schema_(schema), lines_(std::move(lines)) {
  for (const ColumnSpec& spec : schema->columns()) {
    domains_.push_back(spec.type == ColumnType::kNumeric ? 0
                                                         : spec.domain_size);
  }
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
  // One walk over the line and the column plan: each cell parses where it
  // starts, and the parse must stop exactly at the cell's ',' (or the line's
  // end, for the last).
  const uint32_t* const domains = domains_.data();
  const size_t width = domains_.size();
  numeric->resize(width);
  category->resize(width);
  if (width == 0) return CellCountError(line);  // a line holds a cell
  double* const values = numeric->data();
  uint32_t* const codes = category->data();
  const char* cell = line.data();
  const char* const end = cell + line.size();
  for (size_t col = 0;; ++col) {
    const uint32_t domain = domains[col];
    const bool last = col + 1 == width;
    const char* stop = cell + 1;
    // A one-digit cell (most census cells: codes, counts, zeros) is read at
    // once.
    const uint32_t digit = cell != end ? static_cast<unsigned char>(*cell) -
                                             uint32_t{'0'}
                                       : 10;
    if (digit < 10 && (domain == 0 || digit < domain) &&
        (stop == end ? last : !last && *stop == ',')) {
      values[col] = domain == 0 ? digit : 0.0;
      codes[col] = domain == 0 ? 0 : digit;
    } else {
      if (domain == 0) {
        codes[col] = 0;
        stop = internal_csv::ParseNumeric(cell, end, &values[col], nullptr);
      } else {
        values[col] = 0.0;
        stop = internal_csv::ParseCategorical(cell, end, domain, &codes[col]);
      }
      if (__builtin_expect(
              stop == nullptr || (stop == end ? !last : last || *stop != ','),
              0)) {
        Result<const char*> taken =
            FallbackCell(line, col, cell, &values[col], &codes[col]);
        if (!taken.ok()) return taken.status();
        stop = taken.value();
      }
    }
    if (last) break;
    cell = stop + 1;
  }
  ++rows_read_;
  return true;
}

Result<const char*> CsvRowReader::FallbackCell(std::string_view line,
                                               size_t col, const char* cell,
                                               double* value,
                                               uint32_t* code) const {
  // strtod/strtol on a copy of the cell's text. A wrong cell count wins over
  // a bad cell, as when the line was split first.
  const char* const end = line.data() + line.size();
  const char* stop =
      static_cast<const char*>(std::memchr(cell, ',', end - cell));
  if (stop == nullptr) stop = end;
  const size_t width = domains_.size();
  if ((stop == end) != (col + 1 == width)) return CellCountError(line);
  const std::string text(cell, stop);
  const uint32_t domain = domains_[col];
  const bool parsed = domain == 0 ? StrtodNumericCell(text, value)
                                  : StrtolCategoricalCell(text, domain, code);
  if (!parsed) {
    if (CountCells(line) != width) return CellCountError(line);
    return Status::InvalidArgument(
        "row " + std::to_string(rows_read_) + ", column '" +
        schema_->columns()[col].name + "': bad " +
        (domain == 0 ? "numeric" : "categorical") + " cell '" + text + "'");
  }
  return stop;
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
