// Dense row-major matrix for the neural-network substrate.
//
// The three product kernels (matmul / transposed_matmul / matmul_transposed)
// run cache-blocked and register-tiled: fixed block sizes chosen for L1/L2
// residency of the streamed panel, row-quads sharing each loaded b-row, and
// — crucially — a per-output-element accumulation order identical to the
// naive triple loop (k strictly ascending, no partial-sum reassociation
// across blocks, same zero-skip tests). Blocking therefore changes only the
// memory traffic, never a bit of the result (tests/nn_matrix_test.cpp keeps
// the naive loops as the oracle), and is independent of thread count
// (the kernels are single-threaded by design — the experiment grid
// parallelises across folds/models instead).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hdc::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  void fill(double v) noexcept { std::fill(data_.begin(), data_.end(), v); }

  /// out = this (m x k) * other (k x n); throws on shape mismatch.
  [[nodiscard]] Matrix matmul(const Matrix& other) const;

  /// out = this^T (k x m) * other (k x n) — used for weight gradients.
  [[nodiscard]] Matrix transposed_matmul(const Matrix& other) const;

  /// out = this (m x k) * other^T (n x k) — used for input gradients.
  [[nodiscard]] Matrix matmul_transposed(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace hdc::nn
