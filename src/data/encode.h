// Feature encoding for collection and learning:
//  - NormalizeNumeric maps every numeric column from its native [lo, hi]
//    domain to the mechanisms' canonical [-1, 1] domain (the paper's
//    preprocessing step in Section VI).
//  - EncodeFeatures builds the design matrix of the ERM experiments
//    (Section VI-B): numeric attributes normalised to [-1, 1]; each
//    categorical attribute with k values expanded into k-1 binary {0, 1}
//    attributes (value l < k-1 sets the l-th binary attribute, the last
//    value sets none).
//  - EncodeNumericLabel / EncodeBinaryLabel extract the dependent variable
//    for regression (normalised to [-1, 1]) and classification (±1 split at
//    the column mean), respectively.

#ifndef LDP_DATA_ENCODE_H_
#define LDP_DATA_ENCODE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/check.h"
#include "util/result.h"

namespace ldp::data {

/// A dense row-major matrix of encoded features.
class DesignMatrix {
 public:
  DesignMatrix(uint64_t num_rows, uint32_t num_cols)
      : num_rows_(num_rows),
        num_cols_(num_cols),
        values_(num_rows * num_cols, 0.0) {}

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const { return num_cols_; }

  double at(uint64_t row, uint32_t col) const {
    LDP_DCHECK(row < num_rows_ && col < num_cols_);
    return values_[row * num_cols_ + col];
  }
  void set(uint64_t row, uint32_t col, double value) {
    LDP_DCHECK(row < num_rows_ && col < num_cols_);
    values_[row * num_cols_ + col] = value;
  }

  /// Pointer to the first element of `row` (num_cols() contiguous doubles).
  const double* row(uint64_t r) const {
    LDP_DCHECK(r < num_rows_);
    return values_.data() + r * num_cols_;
  }

  /// The full row-major buffer.
  const std::vector<double>& values() const { return values_; }

 private:
  uint64_t num_rows_;
  uint32_t num_cols_;
  std::vector<double> values_;
};

/// Maps `x` affinely from [lo, hi] to [-1, 1]: (x − mid) / half_width. An x
/// inside [lo, hi] whose quotient rounds an ulp past ±1 lands on ±1; an x
/// outside maps outside, for the collector to refuse. The one normalisation
/// shared by NormalizeNumeric and api::RowToTuple, which must agree bit for
/// bit.
inline double NormalizeToUnit(double x, double lo, double hi) {
  const double t = (x - (hi + lo) / 2.0) / ((hi - lo) / 2.0);
  if (!(x >= lo && x <= hi)) return t;
  return t > 1.0 ? 1.0 : (t < -1.0 ? -1.0 : t);
}

/// Returns a copy of `dataset` with every numeric column affinely mapped
/// from its schema [lo, hi] to [-1, 1] (schema bounds updated accordingly)
/// by NormalizeToUnit. Categorical columns are untouched.
Dataset NormalizeNumeric(const Dataset& dataset);

/// Encodes every column except `label_col` into the ERM design matrix
/// described above. Fails if `label_col` is out of range.
Result<DesignMatrix> EncodeFeatures(const Dataset& dataset, uint32_t label_col);

/// The dependent variable for linear regression: column `col` normalised to
/// [-1, 1]. Fails unless `col` is numeric.
Result<std::vector<double>> EncodeNumericLabel(const Dataset& dataset,
                                               uint32_t col);

/// The dependent variable for classification: +1 when the (numeric) value of
/// column `col` exceeds the column mean, else -1 — the paper's binarisation
/// of "total_income". Fails unless `col` is numeric and the dataset is
/// non-empty.
Result<std::vector<double>> EncodeBinaryLabel(const Dataset& dataset,
                                              uint32_t col);

/// Number of design-matrix columns produced by EncodeFeatures: numeric
/// columns count 1, categorical columns count domain_size - 1.
uint32_t EncodedFeatureCount(const Schema& schema, uint32_t label_col);

}  // namespace ldp::data

#endif  // LDP_DATA_ENCODE_H_
