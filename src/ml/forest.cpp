#include "ml/forest.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace hdc::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {
  if (config_.n_trees == 0) throw std::invalid_argument("RandomForest: zero trees");
}

void RandomForest::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  const ColumnTable table(X, y);
  const std::size_t n = table.n_rows();

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(table.n_cols()))));
  }

  trees_.assign(config_.n_trees, DecisionTree(tree_config));
  parallel::parallel_for(0, config_.n_trees, [&](std::size_t t) {
    const std::uint64_t tree_seed = util::mix_seed(config_.seed, t);
    util::Rng rng(tree_seed);
    std::vector<std::uint32_t> rows(n);
    if (config_.bootstrap) {
      for (std::uint32_t& r : rows) {
        r = static_cast<std::uint32_t>(rng.below(n));
      }
    } else {
      std::iota(rows.begin(), rows.end(), 0u);
    }
    trees_[t].fit_from_table(table, std::move(rows), util::mix_seed(tree_seed, 0xf0));
  });
}

void RandomForest::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  fit_shards(SingleShardSource(X, y));
}

void RandomForest::fit_shards(const ShardSource& src) {
  const std::size_t n = src.rows();
  if (n == 0) throw std::invalid_argument("RandomForest: empty row set");

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(src.cols()))));
  }

  // Sequential over trees: src.shard(s) returns a reference that the next
  // shard() call invalidates, so the source cannot be shared across the
  // thread pool the dense fit uses.
  trees_.assign(config_.n_trees, DecisionTree(tree_config));
  for (std::size_t t = 0; t < config_.n_trees; ++t) {
    const std::uint64_t tree_seed = util::mix_seed(config_.seed, t);
    util::Rng rng(tree_seed);
    // Same bootstrap draw sequence as the dense fit; the multiset of rows
    // is carried as per-row multiplicities instead of an index list (draw
    // order only ever feeds exact integer counts, so it cannot matter).
    std::vector<std::uint32_t> multiplicity(n, 0);
    if (config_.bootstrap) {
      for (std::size_t i = 0; i < n; ++i) {
        ++multiplicity[rng.below(n)];
      }
    } else {
      multiplicity.assign(n, 1);
    }
    trees_[t].fit_streamed(src, src.labels(), multiplicity,
                           util::mix_seed(tree_seed, 0xf0));
  }
}

std::vector<double> RandomForest::feature_importances() const {
  if (trees_.empty()) throw std::logic_error("RandomForest: not fitted");
  std::vector<double> total(trees_.front().feature_importances().size(), 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importances();
    for (std::size_t j = 0; j < total.size(); ++j) total[j] += imp[j];
  }
  double sum = 0.0;
  for (const double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

double RandomForest::predict_proba(std::span<const double> x) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: not fitted");
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.predict_proba(x);
  return sum / static_cast<double>(trees_.size());
}

std::vector<int> RandomForest::predict_all_bits(const hv::BitMatrix& X) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: not fitted");
  if (X.cols() != trees_.front().n_features()) {
    throw std::invalid_argument("RandomForest: query arity mismatch");
  }
  std::vector<int> out;
  out.reserve(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const std::uint64_t* row = X.row_bits(i);
    // Same tree order and summation as predict_proba, answered from bits.
    double sum = 0.0;
    for (const DecisionTree& tree : trees_) sum += tree.predict_proba_bits(row);
    out.push_back(sum / static_cast<double>(trees_.size()) >= 0.5 ? 1 : 0);
  }
  return out;
}


void RandomForest::save_state(std::ostream& out) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.forest").tag("v1").nl();
  w.u64(config_.n_trees).u64(config_.bootstrap ? 1 : 0).u64(config_.seed).nl();
  w.u64(trees_.size()).nl();
  for (const DecisionTree& tree : trees_) tree.save_state(out);
}

void RandomForest::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.forest");
  r.expect("ml.forest", "model tag");
  r.expect("v1", "format version");
  config_.n_trees = r.u64("n_trees");
  config_.bootstrap = r.u64("bootstrap") != 0;
  config_.seed = r.u64("seed");
  const std::size_t n = r.count("tree count", 1ULL << 20);
  if (n == 0) throw r.error("empty forest");
  trees_.assign(n, DecisionTree(config_.tree));
  for (DecisionTree& tree : trees_) {
    tree.load_state(in);
    // predict_all_bits checks the query arity against the first tree only.
    if (tree.n_features() != trees_.front().n_features()) {
      throw r.error("tree feature count differs from the first tree's");
    }
  }
}

}  // namespace hdc::ml
