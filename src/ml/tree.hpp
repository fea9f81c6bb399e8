// CART classification tree (gini impurity, binary splits).
//
// Split search is exact. The dense fit() grows depth-first: continuous
// columns are sorted per node, 0/1 columns use a two-bucket count. Packed
// input (fit_bits, fit_shards) grows level-wise over a ShardSource with
// integer popcount node statistics; fit_bits is a one-shard fit_shards.
// Both growth orders key each node's candidate draw on its path, number the
// nodes and sum importances in depth-first preorder, so they fit the same
// tree.
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"

namespace hdc::ml {

struct TreeConfig {
  std::size_t max_depth = 0;  // 0 = unlimited (capped internally at 64)
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of feature candidates per node; 0 = all features. Random forests
  /// set this to sqrt(d).
  std::size_t max_features = 0;
  std::uint64_t seed = 1;
};

/// A single fitted tree. Also exposes the weighted entry points RandomForest
/// uses (bootstrapped row sets, per-node feature sampling).
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// fit_shards over X as a single shard.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;

  /// Fit on a subset of a prepared table (rows may repeat = bootstrap).
  void fit_from_table(const ColumnTable& table, std::vector<std::uint32_t> rows,
                      std::uint64_t seed);

  /// Packed analogue of fit_from_table: level-wise growth over a sharded
  /// source. `multiplicity[r]` is row r's bootstrap count (empty = every
  /// row once); weighted node counts come from multiplicity bit-planes —
  /// count = sum_k 2^k * popcount(plane_k & mask) — summed across shards as
  /// integers. The tree is bit-identical at any shard count and to
  /// fit_from_table on the equivalent row multiset: same candidates,
  /// splits, leaf probabilities and importances, and the nodes are
  /// renumbered in depth-first preorder once grown.
  void fit_streamed(const ShardSource& src, std::span<const int> y,
                    std::span<const std::uint32_t> multiplicity,
                    std::uint64_t seed);

  /// fit_streamed over all rows once (no bootstrap).
  void fit_shards(const ShardSource& src) override;

  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::vector<int> predict_all_bits(const hv::BitMatrix& X) const override;
  /// predict_proba for one packed 0/1 row (words of a BitMatrix row).
  [[nodiscard]] double predict_proba_bits(const std::uint64_t* row_bits) const;
  [[nodiscard]] std::string name() const override { return "Decision Tree"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Gini importance per feature: total impurity decrease contributed by
  /// splits on that feature, normalised to sum to 1 (all-zero if the tree is
  /// a single leaf).
  [[nodiscard]] const std::vector<double>& feature_importances() const noexcept {
    return importances_;
  }

 private:
  struct Node {
    // Internal node: feature >= 0; leaf: feature == -1.
    std::int32_t feature = -1;
    double threshold = 0.0;  // go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double prob = 0.0;  // positive-class fraction at the node
  };

  std::int32_t build(const ColumnTable& table, std::vector<std::uint32_t>& rows,
                     std::size_t depth, std::uint64_t key);

  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  std::size_t n_features_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace hdc::ml
