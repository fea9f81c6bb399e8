#include "eval/metrics.hpp"

#include <gtest/gtest.h>

namespace hdc::eval {
namespace {

/// compute_metrics over label vectors holding exactly these confusion counts.
BinaryMetrics metrics_for(std::size_t tp, std::size_t tn, std::size_t fp,
                          std::size_t fn) {
  std::vector<int> y_true;
  std::vector<int> y_pred;
  const auto add = [&](std::size_t n, int truth, int prediction) {
    y_true.insert(y_true.end(), n, truth);
    y_pred.insert(y_pred.end(), n, prediction);
  };
  add(tp, 1, 1);
  add(tn, 0, 0);
  add(fp, 0, 1);
  add(fn, 1, 0);
  return compute_metrics(y_true, y_pred);
}

TEST(ConfusionMatrix, TalliesAllFourCells) {
  const std::vector<int> y_true = {1, 1, 0, 0, 1, 0};
  const std::vector<int> y_pred = {1, 0, 0, 1, 1, 0};
  const ConfusionMatrix cm = compute_metrics(y_true, y_pred).confusion;
  EXPECT_EQ(cm.tp, 2u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.tn, 2u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.total(), 6u);
}

TEST(ConfusionMatrix, SizeMismatchThrows) {
  EXPECT_THROW((void)compute_metrics({1}, {1, 0}), std::invalid_argument);
}

TEST(ConfusionMatrix, BadLabelsThrow) {
  EXPECT_THROW((void)compute_metrics({2}, {1}), std::invalid_argument);
  EXPECT_THROW((void)compute_metrics({1}, {-1}), std::invalid_argument);
}

TEST(Metrics, PerfectPrediction) {
  const std::vector<int> y = {1, 0, 1, 0};
  const BinaryMetrics m = compute_metrics(y, y);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.specificity, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, KnownValues) {
  const BinaryMetrics m = metrics_for(40, 30, 20, 10);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.7);
  EXPECT_DOUBLE_EQ(m.precision, 40.0 / 60.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.8);
  EXPECT_DOUBLE_EQ(m.specificity, 0.6);
  const double p = 40.0 / 60.0;
  EXPECT_DOUBLE_EQ(m.f1, 2.0 * p * 0.8 / (p + 0.8));
}

TEST(Metrics, DegenerateZeroDenominators) {
  const BinaryMetrics m = metrics_for(0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(Metrics, AllNegativePredictionsHaveZeroPrecision) {
  const std::vector<int> y_true = {1, 1, 0};
  const std::vector<int> y_pred = {0, 0, 0};
  const BinaryMetrics m = compute_metrics(y_true, y_pred);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.specificity, 1.0);
}

TEST(Metrics, AccuracyIdentity) {
  // accuracy == (tp + tn) / total for any confusion matrix.
  for (std::size_t tp : {0u, 3u}) {
    for (std::size_t tn : {1u, 4u}) {
      for (std::size_t fp : {0u, 2u}) {
        for (std::size_t fn : {1u, 5u}) {
          const BinaryMetrics m = metrics_for(tp, tn, fp, fn);
          EXPECT_DOUBLE_EQ(m.accuracy,
                           static_cast<double>(tp + tn) /
                               static_cast<double>(tp + tn + fp + fn));
        }
      }
    }
  }
}

TEST(Accuracy, FractionOfMatches) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1, 0}, {1, 1, 1, 0}), 0.75);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
}

TEST(Accuracy, SizeMismatchThrows) {
  EXPECT_THROW((void)accuracy({1}, {1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace hdc::eval
