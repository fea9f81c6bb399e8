// Bit-packed columnar design matrix for binary (0/1) feature tables.
//
// The hybrid pipeline feeds 10,000-bit patient hypervectors into classical
// ML models. Stored dense, that design matrix costs ~80 KB of doubles per
// row and every split search / dot product walks it row-major. Stored as
// column-major 64-bit bitplanes it is one bit per cell, and every per-node
// statistic a tree or linear model needs collapses into AND/ANDNOT +
// popcount reductions over a handful of words, dispatched through the
// src/simd kernel table:
//
//        column j ->   plane words (ceil(rows/64) u64, padding bits 0)
//   row 0..63      ->  word 0, bit = row index % 64 (little-endian)
//   row 64..127    ->  word 1, ...
//
// A row-major mirror of the same bits (PackedHVs) is kept alongside so
// row-streaming consumers (SGD epochs, kernel matrices, per-row prediction)
// read packed rows instead of gathering across 10,000 bitplanes. Row
// subsets (CV folds, tree nodes, bootstrap draws) are represented as cheap
// RowMask views over the shared planes rather than copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hv/search.hpp"

namespace hdc::hv {

/// Packed row-subset mask: bit i set = row i selected. Padding bits beyond
/// rows() are always zero, so masks can be ANDed against column planes
/// without a separate length check.
class RowMask {
 public:
  RowMask() = default;

  [[nodiscard]] static RowMask all(std::size_t rows);
  [[nodiscard]] static RowMask none(std::size_t rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  [[nodiscard]] const std::uint64_t* words() const noexcept { return words_.data(); }
  [[nodiscard]] std::uint64_t* words() noexcept { return words_.data(); }

  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return ((words_[i >> 6] >> (i & 63)) & 1ULL) != 0;
  }
  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t bit = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }

  /// Number of selected rows (simd-dispatched popcount).
  [[nodiscard]] std::size_t count() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Column-major bitplane matrix with a row-major mirror. Read-only between
/// builds: producers build a PackedHVs and transpose once, either into a
/// new matrix (from_rows) or into an existing one whose buffers they reuse
/// (release_rows, refill the rows, assign_rows).
class BitMatrix {
 public:
  BitMatrix() = default;

  /// A new matrix holding `rows`: assign_rows on an empty matrix.
  [[nodiscard]] static BitMatrix from_rows(PackedHVs rows,
                                           parallel::ThreadPool* pool = nullptr);

  /// Rows in: transpose a row-major packed array into column bitplanes,
  /// 64x64 bits at a time, replacing whatever this matrix held. The planes
  /// are rebuilt in the existing plane buffer, which is only reallocated
  /// when it is too small. The row blocks are spread over `pool` (nullptr =
  /// process-wide pool; run inline from inside a worker of that pool or
  /// for one row); every block writes its own plane words, so the bits never
  /// depend on the pool. The argument is retained (moved) as the row-major
  /// mirror, so callers hand over ownership instead of paying a second copy.
  /// Padding rule: bits past bits() in a row's last word are ignored and
  /// cleared in the mirror, so both views hold the same bits and only the
  /// cols() planes are written.
  void assign_rows(PackedHVs rows, parallel::ThreadPool* pool = nullptr);

  /// Rows out: hand back the row-major mirror and leave this matrix empty,
  /// keeping the plane buffer's capacity for the next assign_rows.
  [[nodiscard]] PackedHVs release_rows() noexcept;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Words per column bitplane: ceil(rows / 64).
  [[nodiscard]] std::size_t words_per_column() const noexcept { return wpc_; }

  /// Column j's bitplane (words_per_column() words, padding bits zero).
  [[nodiscard]] const std::uint64_t* column(std::size_t j) const noexcept {
    return planes_.data() + j * wpc_;
  }

  /// Row-major mirror of the same bits.
  [[nodiscard]] const PackedHVs& row_major() const noexcept { return row_major_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return row_major_.words_per_row();
  }
  [[nodiscard]] const std::uint64_t* row_bits(std::size_t i) const noexcept {
    return row_major_.row(i);
  }

  [[nodiscard]] bool get(std::size_t i, std::size_t j) const noexcept {
    return ((planes_[j * wpc_ + (i >> 6)] >> (i & 63)) & 1ULL) != 0;
  }

  /// Ones-count of column j over all rows (simd-dispatched).
  [[nodiscard]] std::size_t column_popcount(std::size_t j) const noexcept;

  /// Validity mask covering every row (all bits set). Node masks and fold
  /// views start from this and intersect away.
  [[nodiscard]] const RowMask& valid() const noexcept { return valid_; }

  /// Expand row i into doubles (out.size() must be cols()).
  void unpack_row(std::size_t i, std::span<double> out) const;
  [[nodiscard]] std::vector<double> row_doubles(std::size_t i) const;

  /// Bytes held by the planes, the row-major mirror and the validity mask.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Materialised row subset (CV folds): rows re-indexed in `indices` order.
  [[nodiscard]] BitMatrix subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t wpc_ = 0;
  PlaneWords planes_;  // cols_ * wpc_ words, column-major
  PackedHVs row_major_;
  RowMask valid_;
};

}  // namespace hdc::hv
