#include "data/preprocess.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace hdc::data {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset with_missing() {
  Dataset ds({{"x", ColumnKind::kContinuous}, {"y", ColumnKind::kContinuous}});
  ds.add_row(std::vector<double>{1.0, 10.0}, 0);
  ds.add_row(std::vector<double>{2.0, kNaN}, 0);
  ds.add_row(std::vector<double>{3.0, 30.0}, 0);
  ds.add_row(std::vector<double>{100.0, kNaN}, 1);
  ds.add_row(std::vector<double>{200.0, 80.0}, 1);
  ds.add_row(std::vector<double>{300.0, 90.0}, 1);
  return ds;
}

TEST(RemoveMissingRows, DropsOnlyIncompleteRows) {
  const Dataset clean = remove_missing_rows(with_missing());
  EXPECT_EQ(clean.n_rows(), 4u);
  EXPECT_EQ(clean.rows_with_missing(), 0u);
  const auto [neg, pos] = clean.class_counts();
  EXPECT_EQ(neg, 2u);
  EXPECT_EQ(pos, 2u);
}

TEST(RemoveMissingRows, NoopOnCompleteData) {
  Dataset ds({{"x", ColumnKind::kContinuous}});
  ds.add_row(std::vector<double>{1.0}, 0);
  ds.add_row(std::vector<double>{2.0}, 1);
  EXPECT_EQ(remove_missing_rows(ds).n_rows(), 2u);
}

TEST(ImputeClassMedian, FillsWithClassMedian) {
  const Dataset imputed = impute_class_median(with_missing());
  EXPECT_EQ(imputed.rows_with_missing(), 0u);
  // Negative-class median of y over {10, 30} = 20.
  EXPECT_DOUBLE_EQ(imputed.value(1, 1), 20.0);
  // Positive-class median of y over {80, 90} = 85.
  EXPECT_DOUBLE_EQ(imputed.value(3, 1), 85.0);
}

TEST(ImputeClassMedian, LeaksLabelInformation) {
  // The defining property of Pima M: the imputed value differs by class, so
  // a model can exploit it. Same column, same missingness, different fill.
  const Dataset imputed = impute_class_median(with_missing());
  EXPECT_NE(imputed.value(1, 1), imputed.value(3, 1));
}

TEST(ImputeKeepsPresentValues, Intact) {
  const Dataset imputed = impute_class_median(with_missing());
  EXPECT_DOUBLE_EQ(imputed.value(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(imputed.value(5, 1), 90.0);
}

}  // namespace
}  // namespace hdc::data
