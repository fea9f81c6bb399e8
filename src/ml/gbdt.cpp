#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hdc::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

GbdtClassifier::GbdtClassifier(GbdtConfig config) : config_(config) {
  if (config_.n_rounds == 0) throw std::invalid_argument("GBDT: zero rounds");
  if (config_.learning_rate <= 0.0) throw std::invalid_argument("GBDT: bad eta");
  if (config_.max_depth == 0) throw std::invalid_argument("GBDT: zero depth");
}

void GbdtClassifier::fit(const Matrix& X, const Labels& y) {
  const ColumnTable table(X, y);
  const std::size_t n = table.n_rows();
  n_features_ = table.n_cols();
  base_margin_ = std::log(config_.base_score / (1.0 - config_.base_score));

  std::vector<double> margin(n, base_margin_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  trees_.clear();
  trees_.reserve(config_.n_rounds);

  for (std::size_t round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(margin[i]);
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-16, p * (1.0 - p));
    }
    Tree tree;
    std::vector<std::uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0u);
    build_node(table, tree, rows, grad, hess, 0);
    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += config_.learning_rate * tree_output(tree, X[i]);
    }
    trees_.push_back(std::move(tree));
  }
}

std::int32_t GbdtClassifier::build_node(const ColumnTable& table, Tree& tree,
                                        std::vector<std::uint32_t>& rows,
                                        const std::vector<double>& grad,
                                        const std::vector<double>& hess,
                                        std::size_t depth) {
  double g_total = 0.0;
  double h_total = 0.0;
  for (const std::uint32_t r : rows) {
    g_total += grad[r];
    h_total += hess[r];
  }

  const std::int32_t node_id = static_cast<std::int32_t>(tree.size());
  tree.emplace_back();
  tree[node_id].value = -g_total / (h_total + config_.lambda);

  if (depth >= config_.max_depth || rows.size() < 2) return node_id;

  const double parent_score = g_total * g_total / (h_total + config_.lambda);
  double best_gain = config_.gamma;
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, std::uint32_t>> scratch;
  for (std::size_t j = 0; j < table.n_cols(); ++j) {
    if (table.column_is_binary(j)) {
      double gl = 0.0;
      double hl = 0.0;
      for (const std::uint32_t r : rows) {
        if (table.value(r, j) <= 0.5) {
          gl += grad[r];
          hl += hess[r];
        }
      }
      const double hr = h_total - hl;
      if (hl < config_.min_child_weight || hr < config_.min_child_weight) continue;
      const double gr = g_total - gl;
      const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                 gr * gr / (hr + config_.lambda) - parent_score);
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = static_cast<std::int32_t>(j);
        best_threshold = 0.5;
      }
      continue;
    }

    scratch.clear();
    scratch.reserve(rows.size());
    for (const std::uint32_t r : rows) scratch.emplace_back(table.value(r, j), r);
    std::sort(scratch.begin(), scratch.end());
    double gl = 0.0;
    double hl = 0.0;
    for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
      gl += grad[scratch[i].second];
      hl += hess[scratch[i].second];
      if (scratch[i].first == scratch[i + 1].first) continue;
      const double hr = h_total - hl;
      if (hl < config_.min_child_weight || hr < config_.min_child_weight) continue;
      const double gr = g_total - gl;
      const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                 gr * gr / (hr + config_.lambda) - parent_score);
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = static_cast<std::int32_t>(j);
        best_threshold = 0.5 * (scratch[i].first + scratch[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<std::uint32_t> left_rows;
  std::vector<std::uint32_t> right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (const std::uint32_t r : rows) {
    (table.value(r, static_cast<std::size_t>(best_feature)) <= best_threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  tree[node_id].feature = best_feature;
  tree[node_id].threshold = best_threshold;
  const std::int32_t left = build_node(table, tree, left_rows, grad, hess, depth + 1);
  tree[node_id].left = left;
  const std::int32_t right = build_node(table, tree, right_rows, grad, hess, depth + 1);
  tree[node_id].right = right;
  return node_id;
}

double GbdtClassifier::tree_output(const Tree& tree, std::span<const double> x) {
  std::int32_t node = 0;
  while (tree[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = tree[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  return tree[static_cast<std::size_t>(node)].value;
}

double GbdtClassifier::predict_proba(std::span<const double> x) const {
  if (trees_.empty()) throw std::logic_error("GBDT: not fitted");
  if (x.size() != n_features_) throw std::invalid_argument("GBDT: query arity mismatch");
  double margin = base_margin_;
  for (const Tree& tree : trees_) {
    margin += config_.learning_rate * tree_output(tree, x);
  }
  return sigmoid(margin);
}


void GbdtClassifier::save_state(std::ostream& out) const {
  if (trees_.empty()) throw std::logic_error("GBDT: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.gbdt").tag("v1").nl();
  w.u64(config_.n_rounds).f64(config_.learning_rate).u64(config_.max_depth);
  w.f64(config_.lambda).f64(config_.gamma).f64(config_.min_child_weight);
  w.f64(config_.base_score).nl();
  w.u64(n_features_).f64(base_margin_).nl();
  w.u64(trees_.size()).nl();
  for (const Tree& tree : trees_) {
    w.u64(tree.size()).nl();
    for (const Node& nd : tree) {
      w.i64(nd.feature).f64(nd.threshold).i64(nd.left).i64(nd.right).f64(nd.value).nl();
    }
  }
}

void GbdtClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.gbdt");
  r.expect("ml.gbdt", "model tag");
  r.expect("v1", "format version");
  config_.n_rounds = r.u64("n_rounds");
  config_.learning_rate = r.finite_f64("learning_rate");
  config_.max_depth = r.u64("max_depth");
  config_.lambda = r.finite_f64("lambda");
  config_.gamma = r.finite_f64("gamma");
  config_.min_child_weight = r.finite_f64("min_child_weight");
  config_.base_score = r.finite_f64("base_score");
  n_features_ = r.count("n_features", 1ULL << 24);
  if (n_features_ == 0) throw r.error("zero features");
  base_margin_ = r.finite_f64("base_margin");
  const std::size_t rounds = r.count("round count", 1ULL << 20);
  if (rounds == 0) throw r.error("empty ensemble");
  trees_.assign(rounds, Tree{});
  for (Tree& tree : trees_) {
    const std::size_t n = r.count("node count", 1ULL << 24);
    if (n == 0) throw r.error("empty tree");
    tree.assign(n, Node{});
    for (std::size_t i = 0; i < n; ++i) {
      Node& nd = tree[i];
      nd.feature = static_cast<std::int32_t>(r.i64("node feature"));
      nd.threshold = r.finite_f64("node threshold");
      nd.left = static_cast<std::int32_t>(r.i64("node left"));
      nd.right = static_cast<std::int32_t>(r.i64("node right"));
      nd.value = r.finite_f64("node value");
      if (nd.feature >= 0) {
        if (static_cast<std::size_t>(nd.feature) >= n_features_) {
          throw r.error("node feature out of range");
        }
        // Every builder appends children after their parent; a child at
        // or before its own node is a back-link that would loop predict
        // forever.
        const auto self = static_cast<std::int64_t>(i);
        if (nd.left <= self || nd.right <= self ||
            static_cast<std::size_t>(nd.left) >= n ||
            static_cast<std::size_t>(nd.right) >= n) {
          throw r.error("node child index out of range");
        }
      }
    }
  }
}

}  // namespace hdc::ml
