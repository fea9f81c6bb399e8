#include "data/preprocess.hpp"

#include <vector>

namespace hdc::data {

Dataset remove_missing_rows(const Dataset& ds) {
  std::vector<std::size_t> keep;
  keep.reserve(ds.n_rows());
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    if (!ds.row_has_missing(i)) keep.push_back(i);
  }
  return ds.subset(keep);
}

namespace {

Dataset impute_with(const Dataset& ds,
                    const std::vector<std::vector<double>>& fill_by_class) {
  Dataset out(ds.columns());
  std::vector<double> row(ds.n_cols());
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    const auto src = ds.row(i);
    const int y = ds.label(i);
    for (std::size_t j = 0; j < ds.n_cols(); ++j) {
      row[j] = Dataset::is_missing(src[j]) ? fill_by_class[static_cast<std::size_t>(y)][j]
                                           : src[j];
    }
    out.add_row(row, y);
  }
  return out;
}

}  // namespace

Dataset impute_class_median(const Dataset& ds) {
  std::vector<std::vector<double>> fill(2, std::vector<double>(ds.n_cols(), 0.0));
  for (std::size_t j = 0; j < ds.n_cols(); ++j) {
    const ColumnStats overall = ds.column_stats(j);
    for (int y : {0, 1}) {
      const ColumnStats cs = ds.column_stats_for_class(j, y);
      fill[static_cast<std::size_t>(y)][j] = cs.present > 0 ? cs.median : overall.median;
    }
  }
  return impute_with(ds, fill);
}

}  // namespace hdc::data
