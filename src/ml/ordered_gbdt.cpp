#include "ml/ordered_gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hdc::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

OrderedGbdtClassifier::OrderedGbdtClassifier(OrderedGbdtConfig config)
    : config_(config) {
  if (config_.n_rounds == 0) throw std::invalid_argument("CatBoost: zero rounds");
  if (config_.depth == 0 || config_.depth > 16) {
    throw std::invalid_argument("CatBoost: depth must be in [1, 16]");
  }
  if (config_.max_bins < 2 || config_.max_bins > 255) {
    throw std::invalid_argument("CatBoost: max_bins must be in [2, 255]");
  }
}

void OrderedGbdtClassifier::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();
  n_features_ = d;

  // Quantile borders per feature.
  bin_edges_.assign(d, {});
  std::vector<double> column;
  for (std::size_t j = 0; j < d; ++j) {
    column.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) column[i] = X[i][j];
    std::sort(column.begin(), column.end());
    column.erase(std::unique(column.begin(), column.end()), column.end());
    std::vector<double>& edges = bin_edges_[j];
    if (column.size() <= config_.max_bins) {
      edges.assign(column.begin(), column.end());
      if (!edges.empty()) edges.pop_back();
    } else {
      for (std::size_t b = 1; b < config_.max_bins; ++b) {
        const std::size_t rank = b * column.size() / config_.max_bins;
        edges.push_back(column[rank - 1]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
  }
  std::size_t max_bin_count = 2;
  std::vector<std::uint8_t> bins(n * d);
  for (std::size_t j = 0; j < d; ++j) {
    const std::vector<double>& edges = bin_edges_[j];
    max_bin_count = std::max(max_bin_count, edges.size() + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = std::lower_bound(edges.begin(), edges.end(), X[i][j]);
      bins[i * d + j] = static_cast<std::uint8_t>(it - edges.begin());
    }
  }

  std::vector<double> margin(n, 0.0);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<std::uint32_t> leaf_of(n);
  trees_.clear();
  trees_.reserve(config_.n_rounds);

  for (std::size_t round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(margin[i]);
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-16, p * (1.0 - p));
    }

    ObliviousTree tree;
    std::fill(leaf_of.begin(), leaf_of.end(), 0u);
    std::size_t n_leaves = 1;

    for (std::size_t level = 0; level < config_.depth; ++level) {
      // Pick the single (feature, border) that maximises the summed Newton
      // gain across all current leaves. A zero-gain level is still accepted
      // when a non-trivial border exists (CatBoost breaks such ties with
      // score noise; without this, a symmetric XOR never grows level 0).
      double best_gain = 1e-12;
      std::int32_t best_feature = -1;
      std::size_t best_bin = 0;
      std::int32_t fallback_feature = -1;
      std::size_t fallback_bin = 0;
      double fallback_gain = -1.0;

      // Histograms for one feature at a time: [leaf][bin] -> (G, H).
      std::vector<double> hg(n_leaves * max_bin_count);
      std::vector<double> hh(n_leaves * max_bin_count);
      std::vector<double> leaf_g(n_leaves, 0.0);
      std::vector<double> leaf_h(n_leaves, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        leaf_g[leaf_of[i]] += grad[i];
        leaf_h[leaf_of[i]] += hess[i];
      }
      double parent_score = 0.0;
      for (std::size_t l = 0; l < n_leaves; ++l) {
        parent_score += leaf_g[l] * leaf_g[l] / (leaf_h[l] + config_.lambda);
      }

      std::vector<std::uint32_t> hc;
      for (std::size_t j = 0; j < d; ++j) {
        const std::size_t n_bins = bin_edges_[j].size() + 1;
        if (n_bins < 2) continue;
        std::fill(hg.begin(), hg.begin() + static_cast<std::ptrdiff_t>(n_leaves * n_bins),
                  0.0);
        std::fill(hh.begin(), hh.begin() + static_cast<std::ptrdiff_t>(n_leaves * n_bins),
                  0.0);
        hc.assign(n_bins, 0);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t slot = leaf_of[i] * n_bins + bins[i * d + j];
          hg[slot] += grad[i];
          hh[slot] += hess[i];
          ++hc[bins[i * d + j]];
        }
        // Convert each leaf's histogram to prefix sums, then score borders.
        for (std::size_t l = 0; l < n_leaves; ++l) {
          for (std::size_t b = 1; b < n_bins; ++b) {
            hg[l * n_bins + b] += hg[l * n_bins + b - 1];
            hh[l * n_bins + b] += hh[l * n_bins + b - 1];
          }
        }
        std::uint32_t count_left = 0;
        for (std::size_t b = 0; b + 1 < n_bins; ++b) {
          count_left += hc[b];
          double score = 0.0;
          for (std::size_t l = 0; l < n_leaves; ++l) {
            const double gl = hg[l * n_bins + b];
            const double hl = hh[l * n_bins + b];
            const double hr = leaf_h[l] - hl;
            const double gr = leaf_g[l] - gl;
            score += gl * gl / (hl + config_.lambda) + gr * gr / (hr + config_.lambda);
          }
          const double gain = 0.5 * (score - parent_score);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = static_cast<std::int32_t>(j);
            best_bin = b;
          }
          const bool non_trivial = count_left > 0 && count_left < n;
          if (non_trivial && gain > fallback_gain) {
            fallback_gain = gain;
            fallback_feature = static_cast<std::int32_t>(j);
            fallback_bin = b;
          }
        }
      }

      if (best_feature < 0 && fallback_feature >= 0 && fallback_gain > -1e-6) {
        best_feature = fallback_feature;
        best_bin = fallback_bin;
      }
      if (best_feature < 0) break;  // nothing splits the data; stop growing

      tree.features.push_back(best_feature);
      tree.thresholds.push_back(bin_edges_[static_cast<std::size_t>(best_feature)][best_bin]);
      for (std::size_t i = 0; i < n; ++i) {
        const bool right =
            bins[i * d + static_cast<std::size_t>(best_feature)] > best_bin;
        leaf_of[i] = 2 * leaf_of[i] + (right ? 1u : 0u);
      }
      n_leaves *= 2;
    }

    // Leaf values from the final partition.
    tree.leaf_values.assign(std::size_t{1} << tree.features.size(), 0.0);
    {
      std::vector<double> leaf_g(tree.leaf_values.size(), 0.0);
      std::vector<double> leaf_h(tree.leaf_values.size(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        leaf_g[leaf_of[i]] += grad[i];
        leaf_h[leaf_of[i]] += hess[i];
      }
      for (std::size_t l = 0; l < tree.leaf_values.size(); ++l) {
        tree.leaf_values[l] = -leaf_g[l] / (leaf_h[l] + config_.lambda);
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += config_.learning_rate * tree.leaf_values[leaf_of[i]];
    }
    trees_.push_back(std::move(tree));
  }
}

double OrderedGbdtClassifier::tree_output(const ObliviousTree& tree,
                                          std::span<const double> x) {
  std::size_t leaf = 0;
  for (std::size_t level = 0; level < tree.features.size(); ++level) {
    const bool right =
        x[static_cast<std::size_t>(tree.features[level])] > tree.thresholds[level];
    leaf = 2 * leaf + (right ? 1u : 0u);
  }
  return tree.leaf_values[leaf];
}

double OrderedGbdtClassifier::predict_proba(std::span<const double> x) const {
  if (trees_.empty()) throw std::logic_error("CatBoost: not fitted");
  if (x.size() != n_features_) {
    throw std::invalid_argument("CatBoost: query arity mismatch");
  }
  double margin = 0.0;
  for (const ObliviousTree& tree : trees_) {
    margin += config_.learning_rate * tree_output(tree, x);
  }
  return sigmoid(margin);
}


void OrderedGbdtClassifier::save_state(std::ostream& out) const {
  if (trees_.empty()) throw std::logic_error("OrderedGbdt: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.ordered_gbdt").tag("v1").nl();
  w.u64(config_.n_rounds).f64(config_.learning_rate).u64(config_.depth);
  w.f64(config_.lambda).u64(config_.max_bins).f64(config_.min_child_weight).nl();
  w.u64(n_features_).nl();
  for (const std::vector<double>& edges : bin_edges_) w.vec_f64(edges).nl();
  w.u64(trees_.size()).nl();
  for (const ObliviousTree& tree : trees_) {
    w.u64(tree.features.size()).nl();
    for (const std::int32_t f : tree.features) w.i64(f);
    w.nl();
    w.vec_f64(tree.thresholds).nl();
    w.vec_f64(tree.leaf_values).nl();
  }
}

void OrderedGbdtClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.ordered_gbdt");
  r.expect("ml.ordered_gbdt", "model tag");
  r.expect("v1", "format version");
  config_.n_rounds = r.u64("n_rounds");
  config_.learning_rate = r.finite_f64("learning_rate");
  config_.depth = r.u64("depth");
  config_.lambda = r.finite_f64("lambda");
  config_.max_bins = r.u64("max_bins");
  config_.min_child_weight = r.finite_f64("min_child_weight");
  n_features_ = r.count("n_features", 1ULL << 24);
  if (n_features_ == 0) throw r.error("zero features");
  bin_edges_.assign(n_features_, {});
  for (std::vector<double>& edges : bin_edges_) {
    edges = r.vec_finite_f64("bin edges", 1ULL << 20);
  }
  const std::size_t rounds = r.count("round count", 1ULL << 20);
  if (rounds == 0) throw r.error("empty ensemble");
  trees_.assign(rounds, ObliviousTree{});
  for (ObliviousTree& tree : trees_) {
    const std::size_t levels = r.count("level count", 64);
    tree.features.assign(levels, 0);
    for (std::int32_t& f : tree.features) {
      f = static_cast<std::int32_t>(r.i64("level feature"));
      if (f < 0 || static_cast<std::size_t>(f) >= n_features_) {
        throw r.error("level feature out of range");
      }
    }
    tree.thresholds = r.vec_finite_f64("level thresholds", 64);
    tree.leaf_values = r.vec_finite_f64("leaf values", 1ULL << 20);
    if (tree.thresholds.size() != levels) throw r.error("threshold count mismatch");
    if (tree.leaf_values.size() != (1ULL << levels)) {
      throw r.error("leaf table size mismatch");
    }
  }
}

}  // namespace hdc::ml
