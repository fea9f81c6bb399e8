#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace hdc::nn {
namespace {

Matrix from_values(std::size_t rows, std::size_t cols,
                   std::initializer_list<double> values) {
  Matrix m(rows, cols);
  std::size_t i = 0;
  for (const double v : values) m.data()[i++] = v;
  return m;
}

/// Deterministic pseudo-random fill with a sprinkling of exact zeros, so the
/// blocked kernels' zero-skip paths are exercised on every shape.
Matrix patterned(std::size_t rows, std::size_t cols, std::uint64_t salt) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::uint64_t h = (r * 1315423911u) ^ (c * 2654435761u) ^ (salt * 97u);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      m.at(r, c) =
          (h % 5 == 0) ? 0.0 : (static_cast<double>(h % 2001) - 1000.0) / 256.0;
    }
  }
  return m;
}

// Naive reference kernels: the oracle the blocked production kernels must
// reproduce bit for bit (same per-output-element accumulation order, same
// zero-skips).

/// out(m x n) = a(m x k) * b(k x n), i-k-j with a zero-skip.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ar = a.data() + i * a.cols();
    double* o = out.data() + i * n;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double av = ar[k];
      if (av == 0.0) continue;
      const double* br = b.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) o[j] += av * br[j];
    }
  }
  return out;
}

/// out(k x n) = a^T * b for a(rows x k), b(rows x n), k-i-j with a zero-skip.
Matrix naive_transposed_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  const std::size_t n = b.cols();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* ar = a.data() + k * a.cols();
    const double* br = b.data() + k * n;
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av = ar[i];
      if (av == 0.0) continue;
      double* o = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) o[j] += av * br[j];
    }
  }
  return out;
}

/// out(m x p) = a(m x k) * b^T for b(p x k), one ascending dot per element.
Matrix naive_matmul_transposed(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ar = a.data() + i * a.cols();
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* br = b.data() + j * b.cols();
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += ar[k] * br[k];
      out.at(i, j) = sum;
    }
  }
  return out;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
}

TEST(Matrix, RowSpan) {
  Matrix m = from_values(2, 2, {1, 2, 3, 4});
  const auto r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 4.0);
}

TEST(Matrix, Fill) {
  Matrix m(3, 3, 9.0);
  m.fill(0.0);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m.data()[i], 0.0);
}

TEST(Matrix, MatmulKnownValues) {
  const Matrix a = from_values(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_values(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a.matmul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 2);
  EXPECT_THROW((void)a.matmul(b), std::invalid_argument);
}

TEST(Matrix, MatmulWithZerosSkipsCorrectly) {
  // The sparse-row fast path must not change results.
  const Matrix a = from_values(2, 3, {0, 2, 0, 1, 0, 3});
  const Matrix b = from_values(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 16.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 20.0);
}

TEST(Matrix, TransposedMatmulMatchesExplicit) {
  // a^T * b where a is (2x3) treated as transposed -> (3x2) result with b (2x2).
  const Matrix a = from_values(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_values(2, 2, {1, 0, 0, 1});
  const Matrix c = a.transposed_matmul(b);  // (3 x 2)
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c.at(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(c.at(2, 1), 6.0);
}

TEST(Matrix, TransposedMatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(3, 2);
  EXPECT_THROW((void)a.transposed_matmul(b), std::invalid_argument);
}

TEST(Matrix, MatmulTransposedMatchesExplicit) {
  // a (2x3) * b^T where b is (2x3) -> (2x2).
  const Matrix a = from_values(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_values(2, 3, {1, 1, 1, 2, 2, 2});
  const Matrix c = a.matmul_transposed(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 30.0);
}

TEST(Matrix, MatmulTransposedShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 4);
  EXPECT_THROW((void)a.matmul_transposed(b), std::invalid_argument);
}

TEST(MatrixBlocked, AllKernelsMatchReferenceExactly) {
  // The blocked kernels keep the naive loops' per-output-element accumulation
  // order, so parity here is exact equality, not a tolerance. Shapes cover
  // the degenerate 1x1, ragged sub-block sizes, a row-block crossing (768 >
  // kRowBlock), a depth-block crossing (300 > kDepthBlock), and non-multiple
  // quad tails.
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{1, 1, 1},    {17, 3, 4},   {33, 65, 7},
                          {768, 32, 33}, {130, 300, 5}, {64, 256, 32}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " k=" << s.k << " n=" << s.n);
    const Matrix a = patterned(s.m, s.k, 1);
    const Matrix b = patterned(s.k, s.n, 2);
    const Matrix c = patterned(s.m, s.n, 3);
    const Matrix bt = patterned(s.n, s.k, 4);

    const Matrix ref_mm = naive_matmul(a, b);             // (m x n)
    const Matrix ref_tm = naive_transposed_matmul(a, c);  // (k x n)
    const Matrix ref_mt = naive_matmul_transposed(a, bt); // (m x n)

    const Matrix blk_mm = a.matmul(b);
    const Matrix blk_tm = a.transposed_matmul(c);
    const Matrix blk_mt = a.matmul_transposed(bt);

    ASSERT_EQ(blk_mm.size(), ref_mm.size());
    ASSERT_EQ(blk_tm.size(), ref_tm.size());
    ASSERT_EQ(blk_mt.size(), ref_mt.size());
    for (std::size_t i = 0; i < ref_mm.size(); ++i) {
      ASSERT_EQ(blk_mm.data()[i], ref_mm.data()[i]) << "matmul flat=" << i;
    }
    for (std::size_t i = 0; i < ref_tm.size(); ++i) {
      ASSERT_EQ(blk_tm.data()[i], ref_tm.data()[i])
          << "transposed_matmul flat=" << i;
    }
    for (std::size_t i = 0; i < ref_mt.size(); ++i) {
      ASSERT_EQ(blk_mt.data()[i], ref_mt.data()[i])
          << "matmul_transposed flat=" << i;
    }
  }
}

TEST(Matrix, IdentityComposition) {
  // (A * I) == A for a random-ish matrix.
  const Matrix a = from_values(2, 2, {3, -1, 2.5, 4});
  const Matrix eye = from_values(2, 2, {1, 0, 0, 1});
  const Matrix c = a.matmul(eye);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.data()[i], a.data()[i]);
  }
}

}  // namespace
}  // namespace hdc::nn
