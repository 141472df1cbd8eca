// Schema: the column layout of a tabular dataset — names, types, and value
// domains. Numeric columns carry their native [lo, hi] range (used by the
// normalisation step that maps them into the mechanisms' canonical [-1, 1]
// domain); categorical columns carry their number of distinct values.

#ifndef LDP_DATA_SCHEMA_H_
#define LDP_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::data {

/// Type tag of one dataset column.
enum class ColumnType {
  kNumeric,      ///< Continuous value in [lo, hi].
  kCategorical,  ///< Discrete value in {0, ..., domain_size-1}.
};

/// Describes one column.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kNumeric;
  /// Native domain bounds; meaningful for numeric columns.
  double lo = -1.0;
  double hi = 1.0;
  /// Number of distinct values; meaningful for categorical columns.
  uint32_t domain_size = 0;

  static ColumnSpec Numeric(std::string name, double lo, double hi) {
    return {std::move(name), ColumnType::kNumeric, lo, hi, 0};
  }
  static ColumnSpec Categorical(std::string name, uint32_t domain_size) {
    return {std::move(name), ColumnType::kCategorical, 0.0, 0.0, domain_size};
  }
};

/// An immutable ordered collection of column specs.
class Schema {
 public:
  /// Validates and builds a schema: names must be unique and non-empty,
  /// numeric bounds finite with lo < hi, categorical domains >= 2.
  static Result<Schema> Create(std::vector<ColumnSpec> columns);

  /// An empty schema (no columns); useful as a default before assignment.
  Schema() = default;

  /// Number of columns.
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }

  /// The spec of column `index` (must be < num_columns()).
  const ColumnSpec& column(uint32_t index) const {
    LDP_CHECK(index < columns_.size());
    return columns_[index];
  }

  /// All column specs in order.
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of the column with the given name, or NotFound.
  Result<uint32_t> FindColumn(const std::string& name) const;

  /// Number of numeric columns.
  uint32_t NumNumericColumns() const { return num_numeric_; }

  /// Number of categorical columns.
  uint32_t NumCategoricalColumns() const { return num_categorical_; }

  /// Indices of all numeric columns, in schema order.
  std::vector<uint32_t> NumericColumnIndices() const;

  /// Indices of all categorical columns, in schema order.
  std::vector<uint32_t> CategoricalColumnIndices() const;

  /// True when both schemas have identical columns.
  bool Equals(const Schema& other) const;

 private:
  explicit Schema(std::vector<ColumnSpec> columns);

  std::vector<ColumnSpec> columns_;
  uint32_t num_numeric_ = 0;
  uint32_t num_categorical_ = 0;
};

}  // namespace ldp::data

#endif  // LDP_DATA_SCHEMA_H_
