#include "ml/hist_gbdt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace hdc::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

HistGbdtClassifier::HistGbdtClassifier(HistGbdtConfig config) : config_(config) {
  if (config_.n_rounds == 0) throw std::invalid_argument("HistGBDT: zero rounds");
  if (config_.num_leaves < 2) throw std::invalid_argument("HistGBDT: num_leaves < 2");
  if (config_.max_bins < 2 || config_.max_bins > 255) {
    throw std::invalid_argument("HistGBDT: max_bins must be in [2, 255]");
  }
}

std::uint8_t HistGbdtClassifier::bin_of(std::size_t feature, double value) const {
  const std::vector<double>& edges = bin_edges_[feature];
  // Bin b holds values <= edges[b]; the last bin is unbounded above.
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::uint8_t>(it - edges.begin());
}

void HistGbdtClassifier::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  obs::Span span("ml.hist_gbdt.fit");
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();
  n_features_ = d;
  base_margin_ = 0.0;

  // Quantile binning: edges are the values at evenly spaced ranks of the
  // sorted unique values. Bin count per feature <= max_bins.
  bin_edges_.assign(d, {});
  std::vector<double> column;
  for (std::size_t j = 0; j < d; ++j) {
    column.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) column[i] = X[i][j];
    std::sort(column.begin(), column.end());
    column.erase(std::unique(column.begin(), column.end()), column.end());
    std::vector<double>& edges = bin_edges_[j];
    if (column.size() <= config_.max_bins) {
      // One bin per distinct value; edge = the value itself.
      edges.assign(column.begin(), column.end());
      if (!edges.empty()) edges.pop_back();  // last bin open-ended
    } else {
      for (std::size_t b = 1; b < config_.max_bins; ++b) {
        const std::size_t rank = b * column.size() / config_.max_bins;
        edges.push_back(column[rank - 1]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
  }

  // Pre-binned matrix (row-major u8).
  std::vector<std::uint8_t> bins(n * d);
  std::size_t max_bin_count = 2;
  for (std::size_t j = 0; j < d; ++j) {
    max_bin_count = std::max(max_bin_count, bin_edges_[j].size() + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) bins[i * d + j] = bin_of(j, X[i][j]);
  }

  std::vector<double> margin(n, base_margin_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  trees_.clear();
  trees_.reserve(config_.n_rounds);

  struct LeafCandidate {
    std::int32_t node_id = -1;
    std::vector<std::uint32_t> rows;
    double g_sum = 0.0;
    double h_sum = 0.0;
    // Best split found for this leaf.
    double gain = -1.0;
    std::int32_t feature = -1;
    std::int32_t bin = -1;
  };

  // Histogram scratch: one (g, h, count) triple per bin.
  std::vector<double> hg(max_bin_count);
  std::vector<double> hh(max_bin_count);
  std::vector<std::uint32_t> hc(max_bin_count);

  const auto find_best_split = [&](LeafCandidate& leaf) {
    leaf.gain = 0.0;
    leaf.feature = -1;
    const double parent_score =
        leaf.g_sum * leaf.g_sum / (leaf.h_sum + config_.lambda);
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t n_bins = bin_edges_[j].size() + 1;
      if (n_bins < 2) continue;
      std::fill(hg.begin(), hg.begin() + static_cast<std::ptrdiff_t>(n_bins), 0.0);
      std::fill(hh.begin(), hh.begin() + static_cast<std::ptrdiff_t>(n_bins), 0.0);
      std::fill(hc.begin(), hc.begin() + static_cast<std::ptrdiff_t>(n_bins), 0u);
      for (const std::uint32_t r : leaf.rows) {
        const std::uint8_t b = bins[r * d + j];
        hg[b] += grad[r];
        hh[b] += hess[r];
        ++hc[b];
      }
      double gl = 0.0;
      double hl = 0.0;
      std::uint32_t cl = 0;
      for (std::size_t b = 0; b + 1 < n_bins; ++b) {
        gl += hg[b];
        hl += hh[b];
        cl += hc[b];
        const std::uint32_t cr = static_cast<std::uint32_t>(leaf.rows.size()) - cl;
        if (cl < config_.min_data_in_leaf || cr < config_.min_data_in_leaf) continue;
        const double hr = leaf.h_sum - hl;
        if (hl < config_.min_child_weight || hr < config_.min_child_weight) continue;
        const double gr = leaf.g_sum - gl;
        const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                   gr * gr / (hr + config_.lambda) - parent_score);
        if (gain > leaf.gain + 1e-12) {
          leaf.gain = gain;
          leaf.feature = static_cast<std::int32_t>(j);
          leaf.bin = static_cast<std::int32_t>(b);
        }
      }
    }
  };

  for (std::size_t round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(margin[i]);
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-16, p * (1.0 - p));
    }

    Tree tree;
    std::vector<LeafCandidate> leaves;

    LeafCandidate root;
    root.node_id = 0;
    root.rows.resize(n);
    std::iota(root.rows.begin(), root.rows.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
      root.g_sum += grad[i];
      root.h_sum += hess[i];
    }
    tree.emplace_back();
    tree[0].value = -root.g_sum / (root.h_sum + config_.lambda);
    find_best_split(root);
    leaves.push_back(std::move(root));

    // Leaf-wise growth: repeatedly split the leaf with the largest gain.
    while (leaves.size() < config_.num_leaves) {
      std::size_t best = leaves.size();
      double best_gain = 1e-12;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].feature >= 0 && leaves[l].gain > best_gain) {
          best_gain = leaves[l].gain;
          best = l;
        }
      }
      if (best == leaves.size()) break;  // nothing splittable

      LeafCandidate leaf = std::move(leaves[best]);
      leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(best));

      const std::size_t j = static_cast<std::size_t>(leaf.feature);
      LeafCandidate left;
      LeafCandidate right;
      for (const std::uint32_t r : leaf.rows) {
        if (bins[r * d + j] <= leaf.bin) {
          left.rows.push_back(r);
          left.g_sum += grad[r];
          left.h_sum += hess[r];
        } else {
          right.rows.push_back(r);
          right.g_sum += grad[r];
          right.h_sum += hess[r];
        }
      }

      // NOTE: take indices, not references — emplace_back below may
      // reallocate the node vector.
      const std::int32_t left_id = static_cast<std::int32_t>(tree.size());
      tree.emplace_back();
      tree.back().value = -left.g_sum / (left.h_sum + config_.lambda);
      const std::int32_t right_id = static_cast<std::int32_t>(tree.size());
      tree.emplace_back();
      tree.back().value = -right.g_sum / (right.h_sum + config_.lambda);

      Node& parent = tree[static_cast<std::size_t>(leaf.node_id)];
      parent.feature = leaf.feature;
      parent.bin = leaf.bin;
      parent.threshold = bin_edges_[j][static_cast<std::size_t>(leaf.bin)];
      parent.left = left_id;
      parent.right = right_id;
      left.node_id = left_id;
      right.node_id = right_id;

      find_best_split(left);
      find_best_split(right);
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
    }

    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += config_.learning_rate * tree_output(tree, X[i]);
    }
    trees_.push_back(std::move(tree));
  }
  obs::counter("ml.fit.boost_rounds").add(trees_.size());
}

namespace {

/// Registry handles resolved once; every add() gates on obs::enabled().
struct PackedFitMetrics {
  obs::Counter& fits = obs::counter("ml.packed.fits");
  obs::Counter& node_popcounts = obs::counter("ml.hist.node_popcounts");
  obs::Counter& word_ops = obs::counter("ml.packed.word_ops");

  static PackedFitMetrics& get() {
    static PackedFitMetrics metrics;
    return metrics;
  }
};

/// Route a 0/1 row of packed bits through a fitted tree, applying the exact
/// dense rule "value <= threshold" to the expanded bit (thresholds are 0.0
/// for binary-trained trees, but a dense-trained tree may carry others).
template <typename Tree>
double tree_output_bits(const Tree& tree, const std::uint64_t* row_bits) {
  std::int32_t node = 0;
  while (tree[static_cast<std::size_t>(node)].feature >= 0) {
    const auto& nd = tree[static_cast<std::size_t>(node)];
    const std::size_t j = static_cast<std::size_t>(nd.feature);
    const double value = ((row_bits[j >> 6] >> (j & 63)) & 1ULL) != 0 ? 1.0 : 0.0;
    node = value <= nd.threshold ? nd.left : nd.right;
  }
  return tree[static_cast<std::size_t>(node)].value;
}

/// Continue the ascending-row sums (sum_a, sum_b) of a[r] and b[r] over the
/// set bits of (col AND mask), or of (NOT col AND mask) — the bit==0 side of
/// a binary split — when kBitZero. Carried across shards in ascending row
/// order, the float op sequence equals one pass over the whole matrix. The
/// partition step uses it for the two children's sums.
template <bool kBitZero>
void continue_pair_sum(const std::uint64_t* col, const std::uint64_t* mask,
                       std::size_t words, const double* a, const double* b,
                       double& sum_a, double& sum_b) {
  double sa = sum_a;
  double sb = sum_b;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = (kBitZero ? ~col[w] : col[w]) & mask[w];
    while (bits != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      sa += a[r];
      sb += b[r];
      bits &= bits - 1;
    }
  }
  sum_a = sa;
  sum_b = sb;
}

}  // namespace

void HistGbdtClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  fit_shards(SingleShardSource(X, y));
}

void HistGbdtClassifier::fit_shards(const ShardSource& src) {
  obs::Span span("ml.hist_gbdt.fit_shards");
  const std::size_t n = src.rows();
  const std::size_t d = src.cols();
  const std::span<const int> y = src.labels();
  if (n == 0 || d == 0) throw std::invalid_argument("HistGBDT: empty training data");
  if (y.size() != n) throw std::invalid_argument("HistGBDT: label count mismatch");
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("HistGBDT: labels must be 0/1");
    }
  }
  PackedFitMetrics& metrics = PackedFitMetrics::get();
  metrics.fits.increment();
  n_features_ = d;
  base_margin_ = 0.0;

  // Bin structure on 0/1 data: a mixed column gets edges {0.0} (two bins),
  // a constant column gets no edges (one bin — skipped by split search).
  // Matches the dense quantile binning applied to a binary column exactly.
  // Column popcounts merge across shards as integer sums.
  bin_edges_.assign(d, {});
  {
    std::vector<std::uint64_t> pop(d, 0);
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      for (std::size_t j = 0; j < d; ++j) pop[j] += shard.column_popcount(j);
      note_hist_merge(d);
    }
    for (std::size_t j = 0; j < d; ++j) {
      if (pop[j] > 0 && pop[j] < n) bin_edges_[j] = {0.0};
    }
  }

  // Resident per-row state: margin, gradient, hessian and the id of the
  // leaf the row sits in. The design matrix is read one shard at a time.
  std::vector<double> margin(n, base_margin_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<std::int32_t> leaf_of(n, 0);
  trees_.clear();
  trees_.reserve(config_.n_rounds);

  struct LeafCandidate {
    std::int32_t node_id = -1;
    std::size_t count = 0;
    double g_sum = 0.0;
    double h_sum = 0.0;
    double gain = -1.0;
    std::int32_t feature = -1;
    std::int32_t bin = -1;
  };

  // Split-search scratch for one leaf and one shard: its rows (ascending,
  // shard-local) with their gradients and hessians compacted alongside,
  // and its row mask for the column-plane counts. Per column, the left
  // (bit 0) side's count adds across shards as an integer, and its (g, h)
  // sums are the zero_bit_sums accumulators, which continue across shards
  // in ascending global row order, so the last shard leaves exactly the
  // one-pass values.
  std::vector<std::uint32_t> leaf_rows;
  std::vector<double> leaf_g;
  std::vector<double> leaf_h;
  std::vector<std::uint64_t> mask;
  std::vector<std::size_t> left_count(d);
  std::vector<double> left_g(d);
  std::vector<double> left_h(d);
  const std::size_t min_data = config_.min_data_in_leaf;

  const auto find_best_split = [&](LeafCandidate& leaf) {
    leaf.gain = 0.0;
    leaf.feature = -1;
    // Both children need min_data rows, so a smaller leaf has no split
    // that passes the count gate: skipping its search is exact.
    if (leaf.count < 2 * min_data) return;
    const simd::Kernels& kernels = simd::active();
    std::fill(left_count.begin(), left_count.end(), 0);
    std::fill(left_g.begin(), left_g.end(), 0.0);
    std::fill(left_h.begin(), left_h.end(), 0.0);
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      const std::size_t begin = src.shard_begin(s);
      const std::size_t words = shard.words_per_column();
      leaf_rows.clear();
      leaf_g.clear();
      leaf_h.clear();
      mask.assign(words, 0);
      for (std::size_t i = 0; i < shard.rows(); ++i) {
        if (leaf_of[begin + i] != leaf.node_id) continue;
        leaf_rows.push_back(static_cast<std::uint32_t>(i));
        leaf_g.push_back(grad[begin + i]);
        leaf_h.push_back(hess[begin + i]);
        mask[i >> 6] |= 1ULL << (i & 63);
      }
      if (leaf_rows.empty()) continue;
      kernels.zero_bit_sums(shard.row_bits(0), shard.words_per_row(),
                            leaf_rows.data(), leaf_rows.size(), d, leaf_g.data(),
                            leaf_h.data(), left_g.data(), left_h.data());
      std::size_t counted = 0;
      for (std::size_t j = 0; j < d; ++j) {
        if (bin_edges_[j].empty()) continue;
        left_count[j] += kernels.andnot_popcount(shard.column(j), mask.data(), words);
        ++counted;
      }
      metrics.word_ops.add(leaf_rows.size() * shard.words_per_row() +
                           counted * words);
      note_hist_merge(d);
    }
    metrics.node_popcounts.add(d);
    // Gates, gains and the dense loop's running-best epsilon tie-break, in
    // ascending j.
    const double parent_score =
        leaf.g_sum * leaf.g_sum / (leaf.h_sum + config_.lambda);
    for (std::size_t j = 0; j < d; ++j) {
      if (bin_edges_[j].empty()) continue;
      const std::size_t cl = left_count[j];
      if (cl < min_data || leaf.count - cl < min_data) continue;
      const double hl = left_h[j];
      const double hr = leaf.h_sum - hl;
      if (hl < config_.min_child_weight || hr < config_.min_child_weight) continue;
      const double gl = left_g[j];
      const double gr = leaf.g_sum - gl;
      const double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                 gr * gr / (hr + config_.lambda) - parent_score);
      if (gain > leaf.gain + 1e-12) {
        leaf.gain = gain;
        leaf.feature = static_cast<std::int32_t>(j);
        leaf.bin = 0;
      }
    }
  };

  for (std::size_t round = 0; round < config_.n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(margin[i]);
      grad[i] = p - static_cast<double>(y[i]);
      hess[i] = std::max(1e-16, p * (1.0 - p));
    }
    std::fill(leaf_of.begin(), leaf_of.end(), 0);

    Tree tree;
    std::vector<LeafCandidate> leaves;

    LeafCandidate root;
    root.node_id = 0;
    root.count = n;
    for (std::size_t i = 0; i < n; ++i) {
      root.g_sum += grad[i];
      root.h_sum += hess[i];
    }
    tree.emplace_back();
    tree[0].value = -root.g_sum / (root.h_sum + config_.lambda);
    find_best_split(root);
    leaves.push_back(root);

    while (leaves.size() < config_.num_leaves) {
      std::size_t best = leaves.size();
      double best_gain = 1e-12;
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].feature >= 0 && leaves[l].gain > best_gain) {
          best_gain = leaves[l].gain;
          best = l;
        }
      }
      if (best == leaves.size()) break;  // nothing splittable

      const LeafCandidate leaf = leaves[best];
      leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(best));

      const std::size_t j = static_cast<std::size_t>(leaf.feature);
      LeafCandidate left;
      LeafCandidate right;
      left.node_id = static_cast<std::int32_t>(tree.size());
      right.node_id = left.node_id + 1;
      // One pass: move the leaf's rows to their child and continue the
      // children's gradient sums in ascending row order, exactly as the
      // dense split partition accumulates them.
      for (std::size_t s = 0; s < src.num_shards(); ++s) {
        const hv::BitMatrix& shard = src.shard(s);
        const std::size_t begin = src.shard_begin(s);
        const std::size_t words = shard.words_per_column();
        const std::uint64_t* col = shard.column(j);
        mask.assign(words, 0);
        for (std::size_t i = 0; i < shard.rows(); ++i) {
          std::int32_t& id = leaf_of[begin + i];
          if (id != leaf.node_id) continue;
          mask[i >> 6] |= 1ULL << (i & 63);
          id = (col[i >> 6] >> (i & 63)) & 1ULL ? right.node_id : left.node_id;
        }
        left.count += simd::active().andnot_popcount(col, mask.data(), words);
        continue_pair_sum<true>(col, mask.data(), words, grad.data() + begin,
                                hess.data() + begin, left.g_sum, left.h_sum);
        continue_pair_sum<false>(col, mask.data(), words, grad.data() + begin,
                                 hess.data() + begin, right.g_sum, right.h_sum);
      }
      right.count = leaf.count - left.count;

      tree.emplace_back();
      tree.back().value = -left.g_sum / (left.h_sum + config_.lambda);
      tree.emplace_back();
      tree.back().value = -right.g_sum / (right.h_sum + config_.lambda);

      Node& parent = tree[static_cast<std::size_t>(leaf.node_id)];
      parent.feature = leaf.feature;
      parent.bin = leaf.bin;
      parent.threshold = bin_edges_[j][static_cast<std::size_t>(leaf.bin)];
      parent.left = left.node_id;
      parent.right = right.node_id;

      find_best_split(left);
      find_best_split(right);
      leaves.push_back(left);
      leaves.push_back(right);
    }

    // Every row already knows its leaf — the one tree_output_bits would
    // route it to — so the margin update needs no shard access.
    for (std::size_t i = 0; i < n; ++i) {
      margin[i] +=
          config_.learning_rate * tree[static_cast<std::size_t>(leaf_of[i])].value;
    }
    trees_.push_back(std::move(tree));
  }
  obs::counter("ml.fit.boost_rounds").add(trees_.size());
}

double HistGbdtClassifier::tree_output(const Tree& tree, std::span<const double> x) {
  std::int32_t node = 0;
  while (tree[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& nd = tree[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  return tree[static_cast<std::size_t>(node)].value;
}

double HistGbdtClassifier::predict_proba(std::span<const double> x) const {
  if (trees_.empty()) throw std::logic_error("HistGBDT: not fitted");
  if (x.size() != n_features_) {
    throw std::invalid_argument("HistGBDT: query arity mismatch");
  }
  double margin = base_margin_;
  for (const Tree& tree : trees_) {
    margin += config_.learning_rate * tree_output(tree, x);
  }
  return sigmoid(margin);
}

std::vector<int> HistGbdtClassifier::predict_all_bits(const hv::BitMatrix& X) const {
  if (trees_.empty()) throw std::logic_error("HistGBDT: not fitted");
  if (X.cols() != n_features_) {
    throw std::invalid_argument("HistGBDT: query arity mismatch");
  }
  std::vector<int> out;
  out.reserve(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const std::uint64_t* row = X.row_bits(i);
    // Same tree order and margin accumulation as predict_proba; the bit
    // routing is the "value <= 0.0 threshold" rule answered from the bit.
    double margin = base_margin_;
    for (const Tree& tree : trees_) {
      margin += config_.learning_rate * tree_output_bits(tree, row);
    }
    out.push_back(sigmoid(margin) >= 0.5 ? 1 : 0);
  }
  return out;
}


void HistGbdtClassifier::save_state(std::ostream& out) const {
  if (trees_.empty()) throw std::logic_error("HistGbdt: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.hist_gbdt").tag("v1").nl();
  w.u64(config_.n_rounds).f64(config_.learning_rate).u64(config_.num_leaves);
  w.u64(config_.max_bins).f64(config_.lambda).f64(config_.min_child_weight);
  w.u64(config_.min_data_in_leaf).nl();
  w.u64(n_features_).f64(base_margin_).nl();
  for (const std::vector<double>& edges : bin_edges_) w.vec_f64(edges).nl();
  w.u64(trees_.size()).nl();
  for (const Tree& tree : trees_) {
    w.u64(tree.size()).nl();
    for (const Node& nd : tree) {
      w.i64(nd.feature).i64(nd.bin).f64(nd.threshold);
      w.i64(nd.left).i64(nd.right).f64(nd.value).nl();
    }
  }
}

void HistGbdtClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.hist_gbdt");
  r.expect("ml.hist_gbdt", "model tag");
  r.expect("v1", "format version");
  // A NaN or infinite parameter parses as a double but turns every
  // prediction into NaN (or routes rows by a meaningless threshold).
  config_.n_rounds = r.u64("n_rounds");
  config_.learning_rate = r.finite_f64("learning_rate");
  config_.num_leaves = r.u64("num_leaves");
  config_.max_bins = r.u64("max_bins");
  config_.lambda = r.finite_f64("lambda");
  config_.min_child_weight = r.finite_f64("min_child_weight");
  config_.min_data_in_leaf = r.u64("min_data_in_leaf");
  n_features_ = r.count("n_features", 1ULL << 24);
  if (n_features_ == 0) throw r.error("zero features");
  base_margin_ = r.finite_f64("base_margin");
  bin_edges_.assign(n_features_, {});
  for (std::vector<double>& edges : bin_edges_) {
    edges = r.vec_finite_f64("bin edges", 1ULL << 20);
  }
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
      nd.bin = static_cast<std::int32_t>(r.i64("node bin"));
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
