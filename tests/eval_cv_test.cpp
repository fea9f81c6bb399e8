#include "eval/cross_validation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace hdc::eval {
namespace {

TEST(KfoldRun, CallsRunnerOncePerFold) {
  const std::vector<int> labels(40, 0);
  std::vector<int> both = labels;
  for (std::size_t i = 0; i < 20; ++i) both[i] = 1;
  std::size_t calls = 0;
  const CvResult result = kfold_run(
      both, 5, 1,
      [&](std::span<const std::size_t> train, std::span<const std::size_t> test) {
        ++calls;
        EXPECT_EQ(train.size() + test.size(), 40u);
        return 1.0;
      });
  EXPECT_EQ(calls, 5u);
  EXPECT_DOUBLE_EQ(result.mean_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.stddev_accuracy, 0.0);
}

TEST(KfoldRun, AggregatesMeanAndStddev) {
  std::vector<int> labels(20, 0);
  for (std::size_t i = 0; i < 10; ++i) labels[i] = 1;
  double next = 0.0;
  const CvResult result = kfold_run(
      labels, 4, 2,
      [&](std::span<const std::size_t>, std::span<const std::size_t>) {
        next += 0.2;
        return next;  // 0.2, 0.4, 0.6, 0.8
      });
  EXPECT_NEAR(result.mean_accuracy, 0.5, 1e-12);
  EXPECT_NEAR(result.stddev_accuracy, std::sqrt(0.05), 1e-12);
}

TEST(KfoldRun, FoldsAreDisjointAcrossCalls) {
  std::vector<int> labels(30, 0);
  for (std::size_t i = 0; i < 15; ++i) labels[i] = 1;
  std::set<std::size_t> seen;
  (void)kfold_run(labels, 3, 3,
                  [&](std::span<const std::size_t>, std::span<const std::size_t> test) {
                    for (const std::size_t i : test) {
                      EXPECT_TRUE(seen.insert(i).second);
                    }
                    return 0.0;
                  });
  EXPECT_EQ(seen.size(), 30u);
}

}  // namespace
}  // namespace hdc::eval
