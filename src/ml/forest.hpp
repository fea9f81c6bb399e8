// Random forest: bagged CART trees with per-node feature subsampling.
// Each tree derives its bootstrap draw and candidate keys from (seed, tree
// index), so results are independent of thread scheduling. The dense fit()
// trains trees in parallel; packed input (fit_bits, a one-shard fit_shards)
// trains them one after another over the shard source.
#pragma once

#include <memory>

#include "ml/tree.hpp"

namespace hdc::ml {

struct ForestConfig {
  std::size_t n_trees = 100;  // scikit-learn default
  TreeConfig tree;            // tree.max_features == 0 selects sqrt(d)
  bool bootstrap = true;
  std::uint64_t seed = 17;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// fit_shards over X as a single shard.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Sharded fit: the dense fit's bootstrap draw sequence, as per-row
  /// multiplicities, feeds each tree's DecisionTree::fit_streamed, whose
  /// node statistics are integer popcounts merged across shards —
  /// bit-identical at any shard count and to fit() on the same 0/1 matrix.
  /// Trees are fitted sequentially (a ShardSource's current shard is
  /// invalidated by the next shard() call, so it is not shareable across
  /// worker threads).
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::vector<int> predict_all_bits(const hv::BitMatrix& X) const override;
  [[nodiscard]] std::string name() const override { return "Random Forest"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }

  /// Mean of the per-tree gini importances (normalised to sum to 1).
  [[nodiscard]] std::vector<double> feature_importances() const;

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
};

}  // namespace hdc::ml
