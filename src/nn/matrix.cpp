#include "nn/matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace hdc::nn {

namespace {

// Block sizes, fixed regardless of shape or thread count so the iteration
// order — and with it every floating-point result — never depends on the
// environment. kRowBlock output rows share each streamed b-panel;
// kDepthBlock k-rows of b (× 32-64 columns in the NN shapes) sit in L1.
constexpr std::size_t kRowBlock = 64;
constexpr std::size_t kDepthBlock = 256;

}  // namespace

// -- matmul: out(m x n) = this(m x k) * other(k x n) ---------------------

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_) throw std::invalid_argument("matmul: shape mismatch");
  Matrix out(rows_, other.cols_);
  const std::size_t n = other.cols_;

  // Blocked: k-panels of b stay cache-resident while a row-block of `a`
  // streams against them; within the block, row-quads reuse each b-row load.
  // Per output element the k index still ascends monotonically (panels in
  // order, k in order inside each panel, accumulation in place), and the
  // zero-skip applies per (i, k) exactly as in the naive i-k-j loop, so the
  // result is bit-identical to it.
  for (std::size_t ib = 0; ib < rows_; ib += kRowBlock) {
    const std::size_t ie = std::min(ib + kRowBlock, rows_);
    for (std::size_t kb = 0; kb < cols_; kb += kDepthBlock) {
      const std::size_t ke = std::min(kb + kDepthBlock, cols_);
      std::size_t i = ib;
      for (; i + 4 <= ie; i += 4) {
        const double* a0 = data_.data() + i * cols_;
        const double* a1 = a0 + cols_;
        const double* a2 = a1 + cols_;
        const double* a3 = a2 + cols_;
        double* o0 = out.data() + i * n;
        double* o1 = o0 + n;
        double* o2 = o1 + n;
        double* o3 = o2 + n;
        for (std::size_t k = kb; k < ke; ++k) {
          const double* b = other.data() + k * n;
          const double v0 = a0[k];
          const double v1 = a1[k];
          const double v2 = a2[k];
          const double v3 = a3[k];
          if (v0 != 0.0) {
            for (std::size_t j = 0; j < n; ++j) o0[j] += v0 * b[j];
          }
          if (v1 != 0.0) {
            for (std::size_t j = 0; j < n; ++j) o1[j] += v1 * b[j];
          }
          if (v2 != 0.0) {
            for (std::size_t j = 0; j < n; ++j) o2[j] += v2 * b[j];
          }
          if (v3 != 0.0) {
            for (std::size_t j = 0; j < n; ++j) o3[j] += v3 * b[j];
          }
        }
      }
      for (; i < ie; ++i) {
        const double* a = data_.data() + i * cols_;
        double* o = out.data() + i * n;
        for (std::size_t k = kb; k < ke; ++k) {
          const double av = a[k];
          if (av == 0.0) continue;
          const double* b = other.data() + k * n;
          for (std::size_t j = 0; j < n; ++j) o[j] += av * b[j];
        }
      }
    }
  }
  return out;
}

// -- transposed_matmul: out(k x n) = this^T(cols x rows) * other(rows x n) --

Matrix Matrix::transposed_matmul(const Matrix& other) const {
  if (rows_ != other.rows_) {
    throw std::invalid_argument("transposed_matmul: shape mismatch");
  }
  Matrix out(cols_, other.cols_);
  const std::size_t n = other.cols_;

  // Blocked: restrict each sweep over k to a tile of output rows, so the
  // out-tile (kRowBlock x n doubles) stays hot instead of streaming the
  // whole (cols x n) gradient per k. k ascends per output element (outer
  // k-panels, inner k), zero-skip per (k, i) — naive k-i-j order exactly.
  for (std::size_t ib = 0; ib < cols_; ib += kRowBlock) {
    const std::size_t ie = std::min(ib + kRowBlock, cols_);
    for (std::size_t kb = 0; kb < rows_; kb += kDepthBlock) {
      const std::size_t ke = std::min(kb + kDepthBlock, rows_);
      for (std::size_t k = kb; k < ke; ++k) {
        const double* a = data_.data() + k * cols_;
        const double* b = other.data() + k * n;
        for (std::size_t i = ib; i < ie; ++i) {
          const double av = a[i];
          if (av == 0.0) continue;
          double* o = out.data() + i * n;
          for (std::size_t j = 0; j < n; ++j) o[j] += av * b[j];
        }
      }
    }
  }
  return out;
}

// -- matmul_transposed: out(m x p) = this(m x k) * other^T(p x k) --------

Matrix Matrix::matmul_transposed(const Matrix& other) const {
  if (cols_ != other.cols_) {
    throw std::invalid_argument("matmul_transposed: shape mismatch");
  }
  Matrix out(rows_, other.rows_);


  // Register-tiled: four independent dot products share each streamed a-row,
  // each accumulating its own sum over the full k range in ascending order
  // (one accumulator per output element — no partial sums to reassociate).
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = data_.data() + i * cols_;
    double* o = out.data() + i * other.rows_;
    std::size_t j = 0;
    for (; j + 4 <= other.rows_; j += 4) {
      const double* b0 = other.data() + j * other.cols_;
      const double* b1 = b0 + other.cols_;
      const double* b2 = b1 + other.cols_;
      const double* b3 = b2 + other.cols_;
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (std::size_t kk = 0; kk < cols_; ++kk) {
        const double av = a[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      o[j] = s0;
      o[j + 1] = s1;
      o[j + 2] = s2;
      o[j + 3] = s3;
    }
    for (; j < other.rows_; ++j) {
      const double* b = other.data() + j * other.cols_;
      double sum = 0.0;
      for (std::size_t kk = 0; kk < cols_; ++kk) sum += a[kk] * b[kk];
      o[j] = sum;
    }
  }
  return out;
}

}  // namespace hdc::nn
