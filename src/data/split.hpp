// Train/validation/test splitting and cross-validation index generators.
// All splits are seeded and stratified (class proportions preserved) unless
// stated otherwise, matching the paper's validation protocols:
//   * leave-one-out CV for the pure Hamming model,
//   * 70/15/15 train/validation/test for the sequential NN,
//   * 10-fold CV for the ML model comparison (Table III),
//   * 90/10 holdout for the testing-metric tables (IV, V).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace hdc::data {

struct TrainTestIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

struct TrainValTestIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> val;
  std::vector<std::size_t> test;
};

/// Stratified holdout: `test_fraction` of each class goes to test.
[[nodiscard]] TrainTestIndices stratified_split(const std::vector<int>& labels,
                                                double test_fraction,
                                                std::uint64_t seed);

/// Stratified three-way split with the given fractions (must sum to <= 1;
/// the remainder goes to train). Paper uses val = test = 0.15.
[[nodiscard]] TrainValTestIndices stratified_split3(const std::vector<int>& labels,
                                                    double val_fraction,
                                                    double test_fraction,
                                                    std::uint64_t seed);

/// Stratified k-fold: returns k disjoint test folds covering all rows.
/// fold_train(i) is everything outside fold i.
class StratifiedKFold {
 public:
  StratifiedKFold(const std::vector<int>& labels, std::size_t k, std::uint64_t seed);

  [[nodiscard]] std::size_t k() const noexcept { return folds_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& fold_test(std::size_t i) const {
    return folds_.at(i);
  }
  [[nodiscard]] std::vector<std::size_t> fold_train(std::size_t i) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::vector<std::size_t>> folds_;
};

}  // namespace hdc::data
