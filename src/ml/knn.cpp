#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/sharded.hpp"
#include "simd/dispatch.hpp"

namespace hdc::ml {

KnnClassifier::KnnClassifier(KnnConfig config) : config_(config) {
  if (config_.k == 0) throw std::invalid_argument("KNN: k must be positive");
}

void KnnClassifier::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  train_X_ = X;
  train_bits_ = hv::BitMatrix();
  train_y_ = y;
}

void KnnClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  train_bits_ = X;
  train_X_.clear();
  train_y_ = y;
}

void KnnClassifier::fit_shards(const ShardSource& src) {
  std::vector<std::size_t> all(src.rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  fit_bits(gather_rows(src, all), gather_labels(src.labels(), all));
}

double KnnClassifier::vote(std::vector<std::pair<double, int>>& dist) const {
  const std::size_t k = std::min(config_.k, dist.size());
  std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());
  double votes_pos = 0.0;
  double votes_total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = config_.distance_weighted
                         ? 1.0 / (std::sqrt(dist[i].first) + 1e-12)
                         : 1.0;
    votes_total += w;
    if (dist[i].second == 1) votes_pos += w;
  }
  return votes_total > 0.0 ? votes_pos / votes_total : 0.0;
}

double KnnClassifier::predict_proba(std::span<const double> x) const {
  const bool packed = !train_bits_.empty();
  if (!packed && train_X_.empty()) throw std::logic_error("KNN: not fitted");
  const std::size_t d = packed ? train_bits_.cols() : train_X_.front().size();
  if (x.size() != d) {
    throw std::invalid_argument("KNN: query arity mismatch");
  }

  const std::size_t n = packed ? train_bits_.rows() : train_X_.size();
  std::vector<std::pair<double, int>> dist;
  dist.reserve(n);
  if (packed) {
    bool binary_query = true;
    for (const double v : x) {
      if (v != 0.0 && v != 1.0) {
        binary_query = false;
        break;
      }
    }
    if (binary_query) {
      // Binary query vs binary rows: squared Euclidean distance counts
      // mismatching coordinates by exact +1.0 steps, i.e. it IS the Hamming
      // distance (both sides integer-exact), so the (d2, label) pairs match
      // the dense loop bit for bit.
      const std::size_t words = train_bits_.words_per_row();
      std::vector<std::uint64_t> q(words, 0);
      for (std::size_t j = 0; j < d; ++j) {
        if (x[j] == 1.0) q[j / 64] |= 1ULL << (j % 64);
      }
      const simd::Kernels& kernels = simd::active();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t h = kernels.hamming(train_bits_.row_bits(i), q.data(), words);
        dist.emplace_back(static_cast<double>(h), train_y_[i]);
      }
    } else {
      // Arbitrary query: expand row bits to exact 0.0/1.0 on the fly and run
      // the dense accumulation in the same coordinate order.
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t* row = train_bits_.row_bits(i);
        double d2 = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          const double value = (row[j / 64] >> (j % 64)) & 1u ? 1.0 : 0.0;
          const double diff = value - x[j];
          d2 += diff * diff;
        }
        dist.emplace_back(d2, train_y_[i]);
      }
    }
  } else {
    // Partial selection of the k smallest squared distances.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& row = train_X_[i];
      double d2 = 0.0;
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double diff = row[j] - x[j];
        d2 += diff * diff;
      }
      dist.emplace_back(d2, train_y_[i]);
    }
  }
  return vote(dist);
}

std::vector<int> KnnClassifier::predict_all_bits(const hv::BitMatrix& X) const {
  if (train_bits_.empty()) {
    return Classifier::predict_all_bits(X);  // dense-fitted model: expand rows
  }
  if (X.cols() != train_bits_.cols()) {
    throw std::invalid_argument("KNN: query arity mismatch");
  }
  const std::size_t n = train_bits_.rows();
  const std::size_t words = train_bits_.words_per_row();
  const simd::Kernels& kernels = simd::active();
  std::vector<int> out;
  out.reserve(X.rows());
  std::vector<std::pair<double, int>> dist;
  for (std::size_t q = 0; q < X.rows(); ++q) {
    dist.clear();
    dist.reserve(n);
    const std::uint64_t* qbits = X.row_bits(q);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t h = kernels.hamming(train_bits_.row_bits(i), qbits, words);
      dist.emplace_back(static_cast<double>(h), train_y_[i]);
    }
    out.push_back(vote(dist) >= 0.5 ? 1 : 0);
  }
  return out;
}


void KnnClassifier::save_state(std::ostream& out) const {
  const bool packed = !train_bits_.empty();
  if (!packed && train_X_.empty()) {
    throw std::logic_error("KNN: save of unfitted model");
  }
  util::serde::Writer w(out);
  w.tag("ml.knn").tag("v2").nl();
  w.u64(config_.k).u64(config_.distance_weighted ? 1 : 0).nl();
  w.tag(packed ? "packed" : "dense").nl();
  if (packed) {
    hv::write_packed(w, train_bits_.row_major());
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
  config_.distance_weighted = r.u64("distance_weighted") != 0;
  const std::string store = r.token("training store kind");
  std::size_t n = 0;
  if (store == "packed") {
    train_bits_ = hv::BitMatrix::from_rows(hv::read_packed(r, "training bits"));
    train_X_.clear();
    n = train_bits_.rows();
  } else if (store == "dense") {
    train_X_ = read_matrix(r, "training matrix");
    train_bits_ = hv::BitMatrix();
    n = train_X_.size();
  } else {
    throw r.error("unknown training store kind '" + store + "'");
  }
  train_y_ = r.vec_int("training labels", 1ULL << 24);
  if (n == 0) throw r.error("empty training set");
  if (train_y_.size() != n) throw r.error("label count mismatch");
  for (const int y : train_y_) {
    if (y != 0 && y != 1) throw r.error("labels must be 0/1");
  }
}

}  // namespace hdc::ml
