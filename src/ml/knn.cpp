#include "ml/knn.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/sharded.hpp"

namespace hdc::ml {

KnnClassifier::KnnClassifier(KnnConfig config) : config_(config) {
  if (config_.k == 0) throw std::invalid_argument("KNN: k must be positive");
}

void KnnClassifier::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  train_X_ = X;
  train_bits_ = hv::PackedHVs();
  train_y_ = y;
}

void KnnClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  store_packed(X.row_major(), y);
}

void KnnClassifier::fit_shards(const ShardSource& src) {
  std::vector<std::size_t> all(src.rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  fit_bits(gather_rows(src, all), gather_labels(src.labels(), all));
}

void KnnClassifier::store_packed(const hv::PackedHVs& rows, const Labels& y) {
  hv::PackedHVs sorted(rows.bits(), rows.rows());
  Labels sorted_y;
  sorted_y.reserve(y.size());
  const std::size_t words = rows.words_per_row();
  for (const int label : {0, 1}) {
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      if (y[i] != label) continue;
      std::copy(rows.row(i), rows.row(i) + words, sorted.row(sorted_y.size()));
      sorted_y.push_back(label);
    }
  }
  train_bits_ = std::move(sorted);
  train_X_.clear();
  train_y_ = std::move(sorted_y);
}

std::vector<double> KnnClassifier::packed_votes(const hv::PackedHVs& queries) const {
  const std::vector<std::vector<hv::Neighbor>> nearest =
      hv::top_k_neighbors(queries, train_bits_, config_.k);
  std::vector<double> out;
  out.reserve(nearest.size());
  for (const std::vector<hv::Neighbor>& list : nearest) {
    std::size_t positive = 0;
    for (const hv::Neighbor& n : list) positive += train_y_[n.index] == 1 ? 1 : 0;
    out.push_back(static_cast<double>(positive) / static_cast<double>(list.size()));
  }
  return out;
}

double KnnClassifier::predict_proba(std::span<const double> x) const {
  const bool packed = !train_bits_.empty();
  if (!packed && train_X_.empty()) throw std::logic_error("KNN: not fitted");
  const std::size_t d = packed ? train_bits_.bits() : train_X_.front().size();
  if (x.size() != d) throw std::invalid_argument("KNN: query arity mismatch");
  if (packed &&
      std::all_of(x.begin(), x.end(), [](double v) { return v == 0.0 || v == 1.0; })) {
    // Binary query vs binary rows: squared Euclidean distance counts
    // mismatching coordinates by exact +1.0 steps, i.e. it IS the Hamming
    // distance, so the engine's neighbours carry the dense loop's pairs.
    hv::PackedHVs query(d, 1);
    for (std::size_t j = 0; j < d; ++j) {
      if (x[j] == 1.0) query.row(0)[j / 64] |= 1ULL << (j % 64);
    }
    return packed_votes(query).front();
  }
  // Any other query: the k smallest (squared distance, label) pairs. Packed
  // rows expand to exact 0.0/1.0 on the fly, in the dense coordinate order.
  const std::size_t n = packed ? train_bits_.rows() : train_X_.size();
  std::vector<std::pair<double, int>> dist;
  dist.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double value =
          packed ? static_cast<double>((train_bits_.row(i)[j / 64] >> (j % 64)) & 1u)
                 : train_X_[i][j];
      const double diff = value - x[j];
      d2 += diff * diff;
    }
    dist.emplace_back(d2, train_y_[i]);
  }
  const std::size_t k = std::min(config_.k, n);
  std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());
  std::size_t positive = 0;
  for (std::size_t i = 0; i < k; ++i) positive += dist[i].second == 1 ? 1 : 0;
  return static_cast<double>(positive) / static_cast<double>(k);
}

std::vector<int> KnnClassifier::predict_all_bits(const hv::BitMatrix& X) const {
  if (train_bits_.empty()) {
    return Classifier::predict_all_bits(X);  // dense-fitted model: expand rows
  }
  if (X.cols() != train_bits_.bits()) {
    throw std::invalid_argument("KNN: query arity mismatch");
  }
  std::vector<int> out;
  if (X.rows() == 0) return out;
  out.reserve(X.rows());
  for (const double p : packed_votes(X.row_major())) out.push_back(p >= 0.5 ? 1 : 0);
  return out;
}

void KnnClassifier::save_state(std::ostream& out) const {
  const bool packed = !train_bits_.empty();
  if (!packed && train_X_.empty()) {
    throw std::logic_error("KNN: save of unfitted model");
  }
  util::serde::Writer w(out);
  w.tag("ml.knn").tag("v2").nl();
  // The second field once selected distance-weighted voting; it stays in
  // the v2 body and is always 0.
  w.u64(config_.k).u64(0).nl();
  w.tag(packed ? "packed" : "dense").nl();
  if (packed) {
    hv::write_packed(w, train_bits_);
  } else {
    write_matrix(w, train_X_);
  }
  w.vec_int(train_y_).nl();
}

void KnnClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.knn");
  r.expect("ml.knn", "model tag");
  r.expect_version("v2");
  config_.k = r.u64("k");
  if (config_.k == 0) throw r.error("k must be positive");
  if (r.u64("distance_weighted") != 0) {
    throw r.error("distance_weighted must be 0 (distance-weighted voting is not supported)");
  }
  const std::string store = r.token("training store kind");
  const bool packed = store == "packed";
  if (!packed && store != "dense") {
    throw r.error("unknown training store kind '" + store + "'");
  }
  hv::PackedHVs rows;
  if (packed) rows = hv::read_packed(r, "training bits");
  train_X_ = packed ? Matrix() : read_matrix(r, "training matrix");
  const std::size_t n = packed ? rows.rows() : train_X_.size();
  train_bits_ = hv::PackedHVs();
  train_y_ = r.vec_int("training labels", 1ULL << 24);
  if (n == 0) throw r.error("empty training set");
  if (train_y_.size() != n) throw r.error("label count mismatch");
  for (const int y : train_y_) {
    if (y != 0 && y != 1) throw r.error("labels must be 0/1");
  }
  // Bodies saved before the store was label-ordered keep their rows in
  // fit order; ordering them here leaves every vote unchanged.
  if (packed) store_packed(rows, train_y_);
}

}  // namespace hdc::ml
