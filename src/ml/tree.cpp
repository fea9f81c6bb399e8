#include "ml/tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace hdc::ml {

namespace {

constexpr std::size_t kDepthCap = 64;

/// Gini impurity of a (count, positives) bucket, weighted by count.
double gini_weighted(double n, double pos) noexcept {
  if (n <= 0.0) return 0.0;
  const double p = pos / n;
  return n * 2.0 * p * (1.0 - p);
}

struct BestSplit {
  std::int32_t feature = -1;
  double threshold = 0.0;
  double impurity_after = 0.0;
};

/// Key of a node's child on `side` (0 = left, 1 = right); the root's key is
/// the tree seed. A node's key is a pure function of its path, so every
/// growth order visits the same key at the same node.
std::uint64_t child_key(std::uint64_t key, std::uint64_t side) noexcept {
  return util::mix_seed(key, side);
}

/// Candidate features of the node keyed `key`: every column, or (random
/// forest mode) max_features drawn from a fresh Rng seeded with the key.
std::vector<std::size_t> draw_candidates(std::size_t d, std::size_t max_features,
                                         std::uint64_t key) {
  if (max_features == 0 || max_features >= d) {
    std::vector<std::size_t> all(d);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  util::Rng rng(key);
  return rng.sample_without_replacement(d, max_features);
}

void normalise(std::vector<double>& importances) {
  double total = 0.0;
  for (const double v : importances) total += v;
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
}

}  // namespace

DecisionTree::DecisionTree(TreeConfig config) : config_(config) {
  if (config_.min_samples_split < 2) config_.min_samples_split = 2;
  if (config_.min_samples_leaf < 1) config_.min_samples_leaf = 1;
}

void DecisionTree::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  const ColumnTable table(X, y);
  std::vector<std::uint32_t> rows(table.n_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  fit_from_table(table, std::move(rows), config_.seed);
}

void DecisionTree::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  fit_shards(SingleShardSource(X, y));
}

void DecisionTree::fit_from_table(const ColumnTable& table,
                                  std::vector<std::uint32_t> rows,
                                  std::uint64_t seed) {
  if (rows.empty()) throw std::invalid_argument("DecisionTree: empty row set");
  nodes_.clear();
  depth_ = 0;
  n_features_ = table.n_cols();
  importances_.assign(n_features_, 0.0);
  build(table, rows, 0, seed);
  normalise(importances_);
}

std::int32_t DecisionTree::build(const ColumnTable& table,
                                 std::vector<std::uint32_t>& rows, std::size_t depth,
                                 std::uint64_t key) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = rows.size();
  std::size_t positives = 0;
  for (const std::uint32_t r : rows) positives += table.label(r) == 1 ? 1 : 0;

  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].prob = static_cast<double>(positives) / static_cast<double>(n);

  const std::size_t max_depth = config_.max_depth == 0 ? kDepthCap : config_.max_depth;
  const bool pure = positives == 0 || positives == n;
  if (pure || depth >= max_depth || n < config_.min_samples_split) {
    return node_id;
  }

  const std::vector<std::size_t> candidates =
      draw_candidates(table.n_cols(), config_.max_features, key);

  const double parent_impurity =
      gini_weighted(static_cast<double>(n), static_cast<double>(positives));
  BestSplit best;
  best.impurity_after = parent_impurity;

  std::vector<std::pair<double, int>> scratch;
  const double min_leaf = static_cast<double>(config_.min_samples_leaf);

  for (const std::size_t j : candidates) {
    if (table.column_is_binary(j)) {
      // Two-bucket count: threshold 0.5 is the only possible split.
      double n_left = 0.0;
      double pos_left = 0.0;
      for (const std::uint32_t r : rows) {
        if (table.value(r, j) <= 0.5) {
          n_left += 1.0;
          if (table.label(r) == 1) pos_left += 1.0;
        }
      }
      const double n_right = static_cast<double>(n) - n_left;
      if (n_left < min_leaf || n_right < min_leaf) continue;
      const double pos_right = static_cast<double>(positives) - pos_left;
      const double after =
          gini_weighted(n_left, pos_left) + gini_weighted(n_right, pos_right);
      if (after + 1e-12 < best.impurity_after) {
        best = {static_cast<std::int32_t>(j), 0.5, after};
      }
      continue;
    }

    // Continuous column: sort this node's values and scan the midpoints.
    scratch.clear();
    scratch.reserve(n);
    for (const std::uint32_t r : rows) {
      scratch.emplace_back(table.value(r, j), table.label(r));
    }
    std::sort(scratch.begin(), scratch.end());
    double n_left = 0.0;
    double pos_left = 0.0;
    for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
      n_left += 1.0;
      pos_left += scratch[i].second;
      if (scratch[i].first == scratch[i + 1].first) continue;  // no boundary
      const double n_right = static_cast<double>(n) - n_left;
      if (n_left < min_leaf || n_right < min_leaf) continue;
      const double pos_right = static_cast<double>(positives) - pos_left;
      const double after =
          gini_weighted(n_left, pos_left) + gini_weighted(n_right, pos_right);
      if (after + 1e-12 < best.impurity_after) {
        best = {static_cast<std::int32_t>(j),
                0.5 * (scratch[i].first + scratch[i + 1].first), after};
      }
    }
  }

  if (best.feature < 0) return node_id;  // no useful split found
  importances_[static_cast<std::size_t>(best.feature)] +=
      parent_impurity - best.impurity_after;

  std::vector<std::uint32_t> left_rows;
  std::vector<std::uint32_t> right_rows;
  left_rows.reserve(n);
  right_rows.reserve(n);
  for (const std::uint32_t r : rows) {
    (table.value(r, static_cast<std::size_t>(best.feature)) <= best.threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  nodes_[node_id].feature = best.feature;
  nodes_[node_id].threshold = best.threshold;
  const std::int32_t left = build(table, left_rows, depth + 1, child_key(key, 0));
  nodes_[node_id].left = left;
  const std::int32_t right = build(table, right_rows, depth + 1, child_key(key, 1));
  nodes_[node_id].right = right;
  return node_id;
}

void DecisionTree::fit_shards(const ShardSource& src) {
  fit_streamed(src, src.labels(), {}, config_.seed);
}

void DecisionTree::fit_streamed(const ShardSource& src, std::span<const int> y,
                                std::span<const std::uint32_t> multiplicity,
                                std::uint64_t seed) {
  const std::size_t n_rows = src.rows();
  const std::size_t d = src.cols();
  if (n_rows == 0 || d == 0) throw std::invalid_argument("DecisionTree: empty row set");
  if (y.size() != n_rows) throw std::invalid_argument("DecisionTree: X/y size mismatch");
  if (!multiplicity.empty() && multiplicity.size() != n_rows) {
    throw std::invalid_argument("DecisionTree: multiplicity size mismatch");
  }
  const auto mult = [&](std::size_t i) -> std::uint32_t {
    return multiplicity.empty() ? 1u : multiplicity[i];
  };

  // Root stats come straight from the label/multiplicity arrays — integer
  // sums, no shard access needed. Children inherit theirs from the parent's
  // winning split, so only split search ever streams the shards.
  std::uint64_t root_n = 0;
  std::uint64_t root_pos = 0;
  std::uint32_t max_mult = 0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::uint32_t m = mult(i);
    max_mult = std::max(max_mult, m);
    root_n += m;
    if (y[i] == 1) root_pos += m;
  }
  if (root_n == 0) throw std::invalid_argument("DecisionTree: empty row set");
  const std::size_t k_planes = static_cast<std::size_t>(std::bit_width(max_mult));

  nodes_.clear();
  depth_ = 0;
  n_features_ = d;
  // Impurity decrease of each split node, summed into importances_ in
  // depth-first preorder once the tree is grown — the dense builder's order.
  std::vector<double> decrease;

  // Per-row resident state: the id of the node each (drawn) row sits in.
  std::vector<std::int32_t> node_of(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) node_of[i] = mult(i) > 0 ? 0 : -1;

  struct Open {
    std::int32_t node_id = 0;
    std::uint64_t key = 0;  // path key (candidate draw)
    std::size_t depth = 0;
    std::uint64_t n = 0;    // weighted row count
    std::uint64_t pos = 0;  // weighted positives
  };
  struct Eval {
    std::size_t open = 0;                 // index into the current level
    std::vector<std::size_t> candidates;  // drawn feature subset
    std::vector<std::uint64_t> left_n;    // weighted bit=0 count per candidate
    std::vector<std::uint64_t> left_pos;  // weighted bit=0 positives per candidate
  };
  struct Split {
    std::int32_t node_id = -1;
    std::size_t feature = 0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };

  nodes_.emplace_back();
  nodes_[0].prob = static_cast<double>(root_pos) / static_cast<double>(root_n);
  std::vector<Open> level;
  level.push_back({0, seed, 0, root_n, root_pos});

  const std::size_t max_depth = config_.max_depth == 0 ? kDepthCap : config_.max_depth;
  const double min_leaf = static_cast<double>(config_.min_samples_leaf);
  const simd::Kernels& kernels = simd::active();
  constexpr std::size_t kGroup = 256;  // open nodes per streaming pass

  // The previous level's splits, indexed by parent node id. Their rows move
  // to the children during the next histogram pass over each shard, so a
  // level costs one shard pass, and splits no level evaluates never route.
  std::vector<Split> splits;
  std::vector<std::int32_t> split_of;

  while (!level.empty()) {
    std::vector<Eval> evals;
    for (std::size_t o = 0; o < level.size(); ++o) {
      const Open& open = level[o];
      depth_ = std::max(depth_, open.depth);
      const bool pure = open.pos == 0 || open.pos == open.n;
      if (pure || open.depth >= max_depth || open.n < config_.min_samples_split) {
        continue;
      }
      Eval eval;
      eval.open = o;
      eval.candidates = draw_candidates(d, config_.max_features, open.key);
      eval.left_n.assign(eval.candidates.size(), 0);
      eval.left_pos.assign(eval.candidates.size(), 0);
      evals.push_back(std::move(eval));
    }

    // Histogram passes in groups of kGroup nodes: bounds the per-pass mask
    // memory; a very wide level streams the shards more than once.
    for (std::size_t g0 = 0; g0 < evals.size(); g0 += kGroup) {
      const std::size_t g1 = std::min(evals.size(), g0 + kGroup);
      std::vector<std::int32_t> slot_of(nodes_.size(), -1);
      for (std::size_t e = g0; e < g1; ++e) {
        slot_of[static_cast<std::size_t>(level[evals[e].open].node_id)] =
            static_cast<std::int32_t>(e - g0);
      }
      std::size_t group_cells = 0;
      for (std::size_t e = g0; e < g1; ++e) group_cells += 2 * evals[e].candidates.size();

      // The first group's pass routes the rows; later groups find them moved.
      const bool route = g0 == 0 && !splits.empty();

      for (std::size_t s = 0; s < src.num_shards(); ++s) {
        const hv::BitMatrix& shard = src.shard(s);
        const std::size_t begin = src.shard_begin(s);
        const std::size_t rows = shard.rows();
        const std::size_t words = shard.words_per_column();

        // Route step, then the shard-local label plane, multiplicity
        // bit-planes and per-node masks.
        std::vector<std::uint64_t> labels_local(words, 0);
        std::vector<std::vector<std::uint64_t>> planes_local(
            k_planes, std::vector<std::uint64_t>(words, 0));
        std::vector<std::vector<std::uint64_t>> masks(
            g1 - g0, std::vector<std::uint64_t>(words, 0));
        for (std::size_t i = 0; i < rows; ++i) {
          const std::size_t row = begin + i;
          const std::uint64_t bit = 1ULL << (i & 63);
          if (y[row] == 1) labels_local[i >> 6] |= bit;
          const std::uint32_t m = mult(row);
          for (std::size_t k = 0; k < k_planes; ++k) {
            if ((m >> k) & 1u) planes_local[k][i >> 6] |= bit;
          }
          std::int32_t id = node_of[row];
          if (id < 0) continue;
          if (route) {
            const std::int32_t sp = split_of[static_cast<std::size_t>(id)];
            if (sp >= 0) {
              const Split& split = splits[static_cast<std::size_t>(sp)];
              const std::uint64_t* col = shard.column(split.feature);
              id = (col[i >> 6] >> (i & 63)) & 1ULL ? split.right : split.left;
              node_of[row] = id;
            }
          }
          const std::int32_t slot = slot_of[static_cast<std::size_t>(id)];
          if (slot >= 0) masks[static_cast<std::size_t>(slot)][i >> 6] |= bit;
        }

        // Weighted left-bucket counts: ANDNOT popcounts against each
        // multiplicity plane and its label-1 rows — every term is an
        // integer, so the cross-shard sum is order-free and exact.
        std::vector<std::uint64_t> node_plane(words);
        std::vector<std::uint64_t> pos_plane(words);
        for (std::size_t e = g0; e < g1; ++e) {
          Eval& eval = evals[e];
          const std::uint64_t* mask = masks[e - g0].data();
          for (std::size_t k = 0; k < k_planes; ++k) {
            for (std::size_t w = 0; w < words; ++w) {
              node_plane[w] = planes_local[k][w] & mask[w];
              pos_plane[w] = node_plane[w] & labels_local[w];
            }
            const std::uint64_t weight = std::uint64_t{1} << k;
            for (std::size_t c = 0; c < eval.candidates.size(); ++c) {
              const std::uint64_t* col = shard.column(eval.candidates[c]);
              eval.left_n[c] +=
                  weight * kernels.andnot_popcount(col, node_plane.data(), words);
              eval.left_pos[c] +=
                  weight * kernels.andnot_popcount(col, pos_plane.data(), words);
            }
          }
        }
        note_hist_merge(group_cells);
      }
    }

    // Split decisions and child creation, in ascending node-id order — the
    // same deterministic sequence at any shard count.
    std::vector<Open> next;
    splits.clear();
    for (Eval& eval : evals) {
      const Open& open = level[eval.open];
      const double n = static_cast<double>(open.n);
      const double positives = static_cast<double>(open.pos);
      const double parent_impurity = gini_weighted(n, positives);
      BestSplit best;
      best.impurity_after = parent_impurity;
      std::size_t best_c = eval.candidates.size();
      for (std::size_t c = 0; c < eval.candidates.size(); ++c) {
        const double n_left = static_cast<double>(eval.left_n[c]);
        const double n_right = n - n_left;
        if (n_left < min_leaf || n_right < min_leaf) continue;
        const double pos_left = static_cast<double>(eval.left_pos[c]);
        const double pos_right = positives - pos_left;
        const double after =
            gini_weighted(n_left, pos_left) + gini_weighted(n_right, pos_right);
        if (after + 1e-12 < best.impurity_after) {
          best = {static_cast<std::int32_t>(eval.candidates[c]), 0.5, after};
          best_c = c;
        }
      }
      if (best.feature < 0) continue;  // no useful split: stays a leaf
      decrease.resize(nodes_.size());
      decrease[static_cast<std::size_t>(open.node_id)] =
          parent_impurity - best.impurity_after;

      const std::uint64_t left_n = eval.left_n[best_c];
      const std::uint64_t left_pos = eval.left_pos[best_c];
      const std::int32_t left_id = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      nodes_.back().prob =
          static_cast<double>(left_pos) / static_cast<double>(left_n);
      const std::int32_t right_id = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      nodes_.back().prob = static_cast<double>(open.pos - left_pos) /
                           static_cast<double>(open.n - left_n);
      Node& parent = nodes_[static_cast<std::size_t>(open.node_id)];
      parent.feature = best.feature;
      parent.threshold = best.threshold;
      parent.left = left_id;
      parent.right = right_id;
      next.push_back({left_id, child_key(open.key, 0), open.depth + 1, left_n, left_pos});
      next.push_back({right_id, child_key(open.key, 1), open.depth + 1,
                      open.n - left_n, open.pos - left_pos});
      splits.push_back({open.node_id, static_cast<std::size_t>(best.feature),
                        left_id, right_id});
    }

    split_of.assign(nodes_.size(), -1);
    for (std::size_t sp = 0; sp < splits.size(); ++sp) {
      split_of[static_cast<std::size_t>(splits[sp].node_id)] =
          static_cast<std::int32_t>(sp);
    }
    level = std::move(next);
  }

  // Renumber the nodes in depth-first preorder — the dense builder's
  // numbering, which also keeps a parent next to its left child for
  // predict — and sum importances in that order.
  std::vector<std::int32_t> preorder;
  preorder.reserve(nodes_.size());
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    preorder.push_back(id);
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.feature < 0) continue;
    stack.push_back(nd.right);  // popped after the whole left subtree
    stack.push_back(nd.left);
  }
  std::vector<std::int32_t> new_id(nodes_.size());
  for (std::size_t p = 0; p < preorder.size(); ++p) {
    new_id[static_cast<std::size_t>(preorder[p])] = static_cast<std::int32_t>(p);
  }
  std::vector<Node> grown = std::move(nodes_);
  nodes_.clear();
  importances_.assign(d, 0.0);
  for (const std::int32_t id : preorder) {
    Node nd = grown[static_cast<std::size_t>(id)];
    if (nd.feature >= 0) {
      importances_[static_cast<std::size_t>(nd.feature)] +=
          decrease[static_cast<std::size_t>(id)];
      nd.left = new_id[static_cast<std::size_t>(nd.left)];
      nd.right = new_id[static_cast<std::size_t>(nd.right)];
    }
    nodes_.push_back(nd);
  }
  normalise(importances_);
}

double DecisionTree::predict_proba_bits(const std::uint64_t* row_bits) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    const std::size_t j = static_cast<std::size_t>(nd.feature);
    const double value = static_cast<double>((row_bits[j >> 6] >> (j & 63)) & 1ULL);
    node = value <= nd.threshold ? nd.left : nd.right;
  }
  return nodes_[static_cast<std::size_t>(node)].prob;
}

std::vector<int> DecisionTree::predict_all_bits(const hv::BitMatrix& X) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  if (X.cols() != n_features_) {
    throw std::invalid_argument("DecisionTree: query arity mismatch");
  }
  std::vector<int> out;
  out.reserve(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    out.push_back(predict_proba_bits(X.row_bits(i)) >= 0.5 ? 1 : 0);
  }
  return out;
}

double DecisionTree::predict_proba(std::span<const double> x) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  if (x.size() != n_features_) {
    throw std::invalid_argument("DecisionTree: query arity mismatch");
  }
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  return nodes_[static_cast<std::size_t>(node)].prob;
}


void DecisionTree::save_state(std::ostream& out) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.tree").tag("v1").nl();
  w.u64(config_.max_depth).u64(config_.min_samples_split);
  w.u64(config_.min_samples_leaf).u64(config_.max_features).u64(config_.seed).nl();
  w.u64(n_features_).u64(depth_).nl();
  w.u64(nodes_.size()).nl();
  for (const Node& nd : nodes_) {
    w.i64(nd.feature).f64(nd.threshold).i64(nd.left).i64(nd.right).f64(nd.prob).nl();
  }
  w.vec_f64(importances_).nl();
}

void DecisionTree::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.tree");
  r.expect("ml.tree", "model tag");
  r.expect("v1", "format version");
  config_.max_depth = r.u64("max_depth");
  config_.min_samples_split = r.u64("min_samples_split");
  config_.min_samples_leaf = r.u64("min_samples_leaf");
  config_.max_features = r.u64("max_features");
  config_.seed = r.u64("seed");
  n_features_ = r.count("n_features", 1ULL << 24);
  depth_ = r.u64("depth");
  const std::size_t n = r.count("node count", 1ULL << 24);
  if (n == 0) throw r.error("empty node list");
  nodes_.assign(n, Node{});
  for (std::size_t i = 0; i < n; ++i) {
    Node& nd = nodes_[i];
    nd.feature = static_cast<std::int32_t>(r.i64("node feature"));
    nd.threshold = r.finite_f64("node threshold");
    nd.left = static_cast<std::int32_t>(r.i64("node left"));
    nd.right = static_cast<std::int32_t>(r.i64("node right"));
    nd.prob = r.finite_f64("node prob");
    if (nd.feature >= 0) {
      if (static_cast<std::size_t>(nd.feature) >= n_features_) {
        throw r.error("node feature out of range");
      }
      // Every builder appends children after their parent; a child at or
      // before its own node is a back-link that would loop predict forever.
      const auto self = static_cast<std::int64_t>(i);
      if (nd.left <= self || nd.right <= self ||
          static_cast<std::size_t>(nd.left) >= n ||
          static_cast<std::size_t>(nd.right) >= n) {
        throw r.error("node child index out of range");
      }
    }
  }
  importances_ = r.vec_finite_f64("importances", 1ULL << 24);
  if (!importances_.empty() && importances_.size() != n_features_) {
    throw r.error("importance arity mismatch");
  }
}

}  // namespace hdc::ml
