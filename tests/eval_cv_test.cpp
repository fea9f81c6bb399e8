// The k-fold walk itself runs inside core::run_grid (tests/core_grid_test);
// these pin the two pieces it is built from: the stratified fold partition
// and summarize_folds().
#include "eval/cross_validation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/split.hpp"

namespace hdc::eval {
namespace {

TEST(KfoldRun, CallsRunnerOncePerFold) {
  std::vector<int> labels(40, 0);
  for (std::size_t i = 0; i < 20; ++i) labels[i] = 1;
  const data::StratifiedKFold folds(labels, 5, 1);
  std::vector<double> scores;
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(folds.fold_train(f).size() + folds.fold_test(f).size(), 40u);
    scores.push_back(1.0);
  }
  const CvResult result = summarize_folds(scores);
  EXPECT_EQ(result.fold_accuracy.size(), 5u);
  EXPECT_DOUBLE_EQ(result.mean_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.stddev_accuracy, 0.0);
}

TEST(KfoldRun, AggregatesMeanAndStddev) {
  const CvResult result = summarize_folds({0.2, 0.4, 0.6, 0.8});
  EXPECT_NEAR(result.mean_accuracy, 0.5, 1e-12);
  EXPECT_NEAR(result.stddev_accuracy, std::sqrt(0.05), 1e-12);
}

TEST(KfoldRun, FoldsAreDisjointAcrossCalls) {
  std::vector<int> labels(30, 0);
  for (std::size_t i = 0; i < 15; ++i) labels[i] = 1;
  const data::StratifiedKFold folds(labels, 3, 3);
  std::set<std::size_t> seen;
  for (std::size_t f = 0; f < 3; ++f) {
    for (const std::size_t i : folds.fold_test(f)) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(seen.size(), 30u);
}

}  // namespace
}  // namespace hdc::eval
