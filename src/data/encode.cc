#include "data/encode.h"

#include <cmath>

namespace ldp::data {

Dataset NormalizeNumeric(const Dataset& dataset) {
  std::vector<ColumnSpec> specs = dataset.schema().columns();
  for (ColumnSpec& spec : specs) {
    if (spec.type == ColumnType::kNumeric) {
      spec.lo = -1.0;
      spec.hi = 1.0;
    }
  }
  auto schema = Schema::Create(std::move(specs));
  LDP_CHECK(schema.ok());
  Dataset out(std::move(schema).value());
  out.Resize(dataset.num_rows());
  for (uint32_t col = 0; col < dataset.schema().num_columns(); ++col) {
    const ColumnSpec& spec = dataset.schema().column(col);
    if (spec.type == ColumnType::kNumeric) {
      const std::vector<double>& src = dataset.numeric_column(col);
      for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
        out.set_numeric(row, col, NormalizeToUnit(src[row], spec.lo, spec.hi));
      }
    } else {
      const std::vector<uint32_t>& src = dataset.categorical_column(col);
      for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
        out.set_category(row, col, src[row]);
      }
    }
  }
  return out;
}

uint32_t EncodedFeatureCount(const Schema& schema, uint32_t label_col) {
  uint32_t count = 0;
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    if (col == label_col) continue;
    const ColumnSpec& spec = schema.column(col);
    count += (spec.type == ColumnType::kNumeric) ? 1 : spec.domain_size - 1;
  }
  return count;
}

Result<DesignMatrix> EncodeFeatures(const Dataset& dataset,
                                    uint32_t label_col) {
  const Schema& schema = dataset.schema();
  if (label_col >= schema.num_columns()) {
    return Status::OutOfRange("label column index out of range");
  }
  DesignMatrix matrix(dataset.num_rows(),
                      EncodedFeatureCount(schema, label_col));
  uint32_t out_col = 0;
  for (uint32_t col = 0; col < schema.num_columns(); ++col) {
    if (col == label_col) continue;
    const ColumnSpec& spec = schema.column(col);
    if (spec.type == ColumnType::kNumeric) {
      const double mid = (spec.hi + spec.lo) / 2.0;
      const double half_width = (spec.hi - spec.lo) / 2.0;
      const std::vector<double>& src = dataset.numeric_column(col);
      for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
        matrix.set(row, out_col, (src[row] - mid) / half_width);
      }
      ++out_col;
    } else {
      // One-hot with a dropped last level: value l < k-1 sets binary l.
      const std::vector<uint32_t>& src = dataset.categorical_column(col);
      for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
        if (src[row] + 1 < spec.domain_size) {
          matrix.set(row, out_col + src[row], 1.0);
        }
      }
      out_col += spec.domain_size - 1;
    }
  }
  return matrix;
}

Result<std::vector<double>> EncodeNumericLabel(const Dataset& dataset,
                                               uint32_t col) {
  const Schema& schema = dataset.schema();
  if (col >= schema.num_columns()) {
    return Status::OutOfRange("label column index out of range");
  }
  const ColumnSpec& spec = schema.column(col);
  if (spec.type != ColumnType::kNumeric) {
    return Status::InvalidArgument("label column is not numeric");
  }
  const double mid = (spec.hi + spec.lo) / 2.0;
  const double half_width = (spec.hi - spec.lo) / 2.0;
  std::vector<double> labels(dataset.num_rows());
  const std::vector<double>& src = dataset.numeric_column(col);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    labels[row] = (src[row] - mid) / half_width;
  }
  return labels;
}

Result<std::vector<double>> EncodeBinaryLabel(const Dataset& dataset,
                                              uint32_t col) {
  double mean = 0.0;
  LDP_ASSIGN_OR_RETURN(mean, dataset.ColumnMean(col));
  std::vector<double> labels(dataset.num_rows());
  const std::vector<double>& src = dataset.numeric_column(col);
  for (uint64_t row = 0; row < dataset.num_rows(); ++row) {
    labels[row] = (src[row] > mean) ? 1.0 : -1.0;
  }
  return labels;
}

}  // namespace ldp::data
