// Histogram-based gradient boosting with leaf-wise tree growth — the
// LightGBM algorithm family. Continuous features are quantile-binned once at
// fit time (max_bins buckets); split search then sums gradient/hessian
// histograms per bin instead of sorting, and trees grow by repeatedly
// splitting the leaf with the globally best gain until num_leaves is reached.
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"

namespace hdc::ml {

struct HistGbdtConfig {
  std::size_t n_rounds = 100;   // LightGBM default n_estimators
  double learning_rate = 0.1;   // LightGBM default
  std::size_t num_leaves = 31;  // LightGBM default
  std::size_t max_bins = 63;
  double lambda = 1.0;
  double min_child_weight = 1e-3;
  std::size_t min_data_in_leaf = 20;  // LightGBM default
};

class HistGbdtClassifier final : public Classifier {
 public:
  explicit HistGbdtClassifier(HistGbdtConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// fit_shards over X as a single shard.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Packed fit, one shard resident at a time, split gains from counts and
  /// sums over the bits instead of per-row binning. Per leaf, each column's
  /// left (bit 0) count is a leaf-mask × column-bitplane popcount that adds
  /// across shards as an integer, and its float gradient/hessian sums come
  /// from one row-major simd zero_bit_sums pass over the leaf's rows,
  /// continued across shards in ascending global row order. So the fit is
  /// bit-identical at any shard count and to the dense fit on any all-0/1
  /// matrix (same accumulation order, same tie-breaks). A leaf with fewer
  /// than 2 * min_data_in_leaf rows is not searched, since no split can
  /// pass the count gate. There is no internal parallel loop: callers
  /// parallelise across fits. Resident state is O(rows) scalars (margin,
  /// gradient, hessian, leaf id) plus one shard.
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::vector<int> predict_all_bits(const hv::BitMatrix& X) const override;
  [[nodiscard]] std::string name() const override { return "LGBM"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  [[nodiscard]] std::size_t round_count() const noexcept { return trees_.size(); }

 private:
  struct Node {
    std::int32_t feature = -1;  // -1 = leaf
    std::int32_t bin = 0;       // go left if bin(x) <= bin
    double threshold = 0.0;     // raw-value threshold for prediction
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
  };
  using Tree = std::vector<Node>;

  [[nodiscard]] std::uint8_t bin_of(std::size_t feature, double value) const;
  [[nodiscard]] static double tree_output(const Tree& tree, std::span<const double> x);

  HistGbdtConfig config_;
  std::vector<std::vector<double>> bin_edges_;  // per feature, ascending
  std::vector<Tree> trees_;
  double base_margin_ = 0.0;
  std::size_t n_features_ = 0;
};

}  // namespace hdc::ml
