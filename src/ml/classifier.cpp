#include "ml/classifier.hpp"

#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"

namespace hdc::ml {

void Classifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  Matrix dense;
  dense.reserve(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) dense.push_back(X.row_doubles(i));
  fit(dense, y);
}

std::vector<int> Classifier::predict_all_bits(const hv::BitMatrix& X) const {
  std::vector<int> out;
  out.reserve(X.rows());
  std::vector<double> row(X.cols());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    X.unpack_row(i, row);
    out.push_back(predict(row));
  }
  return out;
}

double Classifier::accuracy_bits(const hv::BitMatrix& X, const Labels& y) const {
  if (X.rows() == 0) return 0.0;
  const std::vector<int> predictions = predict_all_bits(X);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == y[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

void Classifier::fit_shards(const ShardSource& src) {
  // Fallback for models without an exact merge path: gather a deterministic
  // strided subsample (a pure function of rows and the cap, so identical
  // for every shard count) and train on it resident.
  const std::vector<std::size_t> indices =
      strided_subsample(src.rows(), kShardSubsampleRows);
  const hv::BitMatrix sample = gather_rows(src, indices);
  fit_bits(sample, gather_labels(src.labels(), indices));
}

void Classifier::save_state(std::ostream& out) const {
  (void)out;
  throw std::runtime_error(name() + ": save_state not supported");
}

void Classifier::load_state(std::istream& in) {
  (void)in;
  throw std::runtime_error(name() + ": load_state not supported");
}

namespace {
// Caps applied to counts read from untrusted streams. A corrupted length
// field throws before any allocation is attempted. kMaxCells bounds matrix
// cells; kMaxDim bounds row/column arities.
constexpr std::uint64_t kMaxDim = 1ULL << 24;
constexpr std::uint64_t kMaxCells = 1ULL << 30;
}  // namespace

void write_matrix(util::serde::Writer& out, const Matrix& X) {
  out.u64(X.size()).u64(X.empty() ? 0 : X.front().size()).nl();
  for (const auto& row : X) out.vec_f64(row).nl();
}

Matrix read_matrix(util::serde::Reader& in, const char* what) {
  const std::uint64_t rows = in.count(what, kMaxDim);
  const std::uint64_t cols = in.count(what, kMaxDim);
  if (rows * cols > kMaxCells) throw in.error(std::string(what) + ": matrix too large");
  Matrix X;
  X.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    X.push_back(in.vec_f64(what, cols));
    if (X.back().size() != cols) {
      throw in.error(std::string(what) + ": ragged matrix row");
    }
  }
  return X;
}

void validate_training_bits(const hv::BitMatrix& X, const Labels& y) {
  if (X.rows() == 0 || X.cols() == 0) {
    throw std::invalid_argument("fit: empty training set");
  }
  if (X.rows() != y.size()) throw std::invalid_argument("fit: X/y size mismatch");
  for (const int label : y) {
    if (label != 0 && label != 1) throw std::invalid_argument("fit: labels must be 0/1");
  }
}

void validate_training_data(const Matrix& X, const Labels& y) {
  if (X.empty()) throw std::invalid_argument("fit: empty training set");
  if (X.size() != y.size()) throw std::invalid_argument("fit: X/y size mismatch");
  const std::size_t d = X.front().size();
  if (d == 0) throw std::invalid_argument("fit: zero-width rows");
  for (const auto& row : X) {
    if (row.size() != d) throw std::invalid_argument("fit: ragged matrix");
  }
  for (const int label : y) {
    if (label != 0 && label != 1) throw std::invalid_argument("fit: labels must be 0/1");
  }
}

ColumnTable::ColumnTable(const Matrix& X, const Labels& y) : labels_(y) {
  validate_training_data(X, y);
  n_rows_ = X.size();
  n_cols_ = X.front().size();
  data_.resize(n_rows_ * n_cols_);
  binary_.assign(n_cols_, true);
  for (std::size_t i = 0; i < n_rows_; ++i) {
    for (std::size_t j = 0; j < n_cols_; ++j) {
      const double v = X[i][j];
      data_[j * n_rows_ + i] = v;
      if (v != 0.0 && v != 1.0) binary_[j] = false;
    }
  }
}

}  // namespace hdc::ml
