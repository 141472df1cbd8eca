#include "data/schema.h"

#include <cmath>
#include <unordered_set>


namespace ldp::data {

Result<Schema> Schema::Create(std::vector<ColumnSpec> columns) {
  std::unordered_set<std::string> names;
  for (const ColumnSpec& spec : columns) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("column name must be non-empty");
    }
    if (!names.insert(spec.name).second) {
      return Status::InvalidArgument("duplicate column name: " + spec.name);
    }
    if (spec.type == ColumnType::kNumeric) {
      if (!(std::isfinite(spec.lo) && std::isfinite(spec.hi) &&
            spec.lo < spec.hi)) {
        return Status::InvalidArgument("column " + spec.name +
                                       ": numeric bounds must be finite with "
                                       "lo < hi");
      }
    } else {
      if (spec.domain_size < 2) {
        return Status::InvalidArgument(
            "column " + spec.name + ": categorical domain needs >= 2 values");
      }
    }
  }
  return Schema(std::move(columns));
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {
  for (const ColumnSpec& spec : columns_) {
    if (spec.type == ColumnType::kNumeric) {
      ++num_numeric_;
    } else {
      ++num_categorical_;
    }
  }
}

Result<uint32_t> Schema::FindColumn(const std::string& name) const {
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named " + name);
}

std::vector<uint32_t> Schema::NumericColumnIndices() const {
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == ColumnType::kNumeric) indices.push_back(i);
  }
  return indices;
}

std::vector<uint32_t> Schema::CategoricalColumnIndices() const {
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == ColumnType::kCategorical) indices.push_back(i);
  }
  return indices;
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnSpec& a = columns_[i];
    const ColumnSpec& b = other.columns_[i];
    if (a.name != b.name || a.type != b.type) return false;
    if (a.type == ColumnType::kNumeric) {
      if (a.lo != b.lo || a.hi != b.hi) return false;
    } else {
      if (a.domain_size != b.domain_size) return false;
    }
  }
  return true;
}

}  // namespace ldp::data
