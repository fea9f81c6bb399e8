// Common interface for the from-scratch classical ML substrate.
//
// The paper feeds either raw features (8 / 16 columns) or 10,000-bit
// hypervectors (as 0/1 columns) into scikit-learn style models. The input
// type picks the algorithm: fit() takes a dense row-major double matrix
// (raw features), fit_bits() a bit-packed BitMatrix (hypervectors), and
// fit_shards() a shard-at-a-time ShardSource (the streamed bundle build);
// labels are binary throughout. No option or config field re-routes them.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/serde.hpp"

namespace hdc::hv {
class BitMatrix;
}

namespace hdc::ml {

/// Row-major feature matrix.
using Matrix = std::vector<std::vector<double>>;

using Labels = std::vector<int>;

class ShardSource;  // ml/sharded.hpp — shard-at-a-time training input

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on X (n rows, equal arity) with labels in {0, 1}.
  virtual void fit(const Matrix& X, const Labels& y) = 0;

  /// P(y = 1 | x). Must be in [0, 1]. Only valid after fit().
  [[nodiscard]] virtual double predict_proba(std::span<const double> x) const = 0;

  /// Hard 0/1 prediction (threshold 0.5 unless the model overrides it).
  [[nodiscard]] virtual int predict(std::span<const double> x) const {
    return predict_proba(x) >= 0.5 ? 1 : 0;
  }

  /// Human-readable model family name (matches the paper's tables).
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] std::vector<int> predict_all(const Matrix& X) const {
    std::vector<int> out;
    out.reserve(X.size());
    for (const auto& row : X) out.push_back(predict(row));
    return out;
  }

  [[nodiscard]] double accuracy(const Matrix& X, const Labels& y) const {
    if (X.empty()) return 0.0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < X.size(); ++i) {
      if (predict(X[i]) == y[i]) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(X.size());
  }

  /// Train on a bit-packed 0/1 design matrix. Models with a packed fast
  /// path override this; the default expands rows to doubles and defers to
  /// fit(), so every model accepts packed input. Results are bit-identical
  /// to the dense path either way.
  virtual void fit_bits(const hv::BitMatrix& X, const Labels& y);

  /// Hard predictions over every row of a packed matrix. Packed-aware
  /// models answer from the bits directly; others expand row by row.
  [[nodiscard]] virtual std::vector<int> predict_all_bits(const hv::BitMatrix& X) const;

  [[nodiscard]] double accuracy_bits(const hv::BitMatrix& X, const Labels& y) const;

  /// Train shard-at-a-time (ml/sharded.hpp). The contract is shard-count
  /// invariance: for a fixed row sequence, fitting through 1, 4 or 8 shards
  /// produces bit-identical parameters and predictions. Models with exact
  /// merge paths (integer popcount histograms, carried accumulators)
  /// override this; the default (SGD, XGBoost, CatBoost) gathers a
  /// deterministic strided subsample of kShardSubsampleRows rows and defers
  /// to fit_bits() — still shard-count invariant, and equal to fit_bits()
  /// whenever rows <= kShardSubsampleRows.
  virtual void fit_shards(const ShardSource& src);

  /// Serialize everything predict_proba() needs — hyper-parameters plus the
  /// fitted state — as a util::serde token stream, restorable bit-identically
  /// by load_state() on a model of the same concrete type (core/bundle
  /// constructs it through ml::make_model). The default throws: every zoo
  /// model overrides both, anything else is not bundle-persistable.
  virtual void save_state(std::ostream& out) const;
  /// Inverse of save_state(). Throws std::runtime_error (with a field-level
  /// diagnostic) on malformed input; the model is left unusable, never in a
  /// silently wrong state.
  virtual void load_state(std::istream& in);
};

/// Shared helpers for the save_state/load_state implementations.
void write_matrix(util::serde::Writer& out, const Matrix& X);
[[nodiscard]] Matrix read_matrix(util::serde::Reader& in, const char* what);

/// Validated view of training inputs plus a column-major copy used by the
/// tree-based models (cache-friendly split searches).
class ColumnTable {
 public:
  ColumnTable() = default;
  ColumnTable(const Matrix& X, const Labels& y);

  [[nodiscard]] std::size_t n_rows() const noexcept { return n_rows_; }
  [[nodiscard]] std::size_t n_cols() const noexcept { return n_cols_; }

  [[nodiscard]] std::span<const double> column(std::size_t j) const {
    return {data_.data() + j * n_rows_, n_rows_};
  }
  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    return data_[col * n_rows_ + row];
  }
  [[nodiscard]] int label(std::size_t row) const { return labels_[row]; }
  [[nodiscard]] const Labels& labels() const noexcept { return labels_; }

  /// True if every value in column j is 0 or 1 (hypervector columns); tree
  /// split search then skips sorting entirely.
  [[nodiscard]] bool column_is_binary(std::size_t j) const { return binary_[j]; }

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_cols_ = 0;
  std::vector<double> data_;  // column-major
  Labels labels_;
  std::vector<bool> binary_;
};

/// Throws std::invalid_argument on ragged X, empty X, arity mismatch with a
/// fitted dimension, or labels outside {0,1}.
void validate_training_data(const Matrix& X, const Labels& y);

/// Packed-path analogue: throws on empty X, row/label count mismatch, or
/// labels outside {0,1}.
void validate_training_bits(const hv::BitMatrix& X, const Labels& y);

}  // namespace hdc::ml
