#include "hv/bit_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"

namespace hdc::hv {

RowMask RowMask::all(std::size_t rows) {
  RowMask mask = none(rows);
  const std::size_t full = rows / 64;
  for (std::size_t w = 0; w < full; ++w) mask.words_[w] = ~0ULL;
  if (rows % 64 != 0) mask.words_[full] = (1ULL << (rows % 64)) - 1ULL;
  return mask;
}

RowMask RowMask::none(std::size_t rows) {
  RowMask mask;
  mask.rows_ = rows;
  mask.words_.assign((rows + 63) / 64, 0ULL);
  return mask;
}

namespace {

// Masks of the six swap stages of a 64x64 bit transpose (Hacker's Delight
// 7-3, little-endian): stage s exchanges bit s of the row index with bit s
// of the column index by swapping the bits of row k under mask << 2^s with
// the bits of row k + 2^s under mask.
constexpr std::uint64_t kStageMask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// One stage of transpose_block<LogLive>. While the stage's row pairs lie
/// inside the live rows it swaps; past them the partner row is zero, so the
/// swap reduces to splitting row k into rows k and k + 2^s.
template <unsigned S, unsigned LogLive>
inline void transpose_stage(std::uint64_t* a) noexcept {
  constexpr unsigned kSpan = 1u << S;
  constexpr std::uint64_t kMask = kStageMask[S];
  if constexpr (S < LogLive) {
    for (unsigned k = 0; k < (1u << LogLive); k += 2 * kSpan) {
      for (unsigned i = k; i < k + kSpan; ++i) {
        const std::uint64_t t = ((a[i] >> kSpan) ^ a[i + kSpan]) & kMask;
        a[i] ^= t << kSpan;
        a[i + kSpan] ^= t;
      }
    }
  } else {
    for (unsigned i = 0; i < kSpan; ++i) {
      a[i + kSpan] = (a[i] >> kSpan) & kMask;
      a[i] &= kMask;
    }
  }
}

/// Transposes the 64x64 bit block a[0..64) in place (bit c of a[r] becomes
/// bit r of a[c]) when only rows [0, 2^LogLive) can be non-zero. Those rows
/// are the only ones read; the stages commute, so the in-range swaps run
/// first and a short block skips most of the work.
template <unsigned LogLive>
void transpose_block(std::uint64_t* a) noexcept {
  transpose_stage<0, LogLive>(a);
  transpose_stage<1, LogLive>(a);
  transpose_stage<2, LogLive>(a);
  transpose_stage<3, LogLive>(a);
  transpose_stage<4, LogLive>(a);
  transpose_stage<5, LogLive>(a);
}

/// Transposes a block whose first n_rows (1..64) words hold row words;
/// the rest of a[] is scratch. On return a[c] is column c's plane word.
void transpose_rows(std::uint64_t* a, std::size_t n_rows) noexcept {
  const unsigned log_live = static_cast<unsigned>(std::bit_width(n_rows - 1));
  for (std::size_t r = n_rows; r < (std::size_t{1} << log_live); ++r) a[r] = 0;
  switch (log_live) {
    case 0: return transpose_block<0>(a);
    case 1: return transpose_block<1>(a);
    case 2: return transpose_block<2>(a);
    case 3: return transpose_block<3>(a);
    case 4: return transpose_block<4>(a);
    case 5: return transpose_block<5>(a);
    default: return transpose_block<6>(a);
  }
}

/// Byte value -> its eight bits as eight 0/1 words.
struct ByteSpread {
  std::uint64_t words[256][8];
};

constexpr ByteSpread make_byte_spread() {
  ByteSpread table{};
  for (unsigned v = 0; v < 256; ++v) {
    for (unsigned t = 0; t < 8; ++t) table.words[v][t] = (v >> t) & 1U;
  }
  return table;
}

constexpr ByteSpread kByteSpread = make_byte_spread();

/// The planes of a one-row matrix: plane word j is bit j of the row.
void spread_row(const std::uint64_t* row, std::size_t cols,
                std::uint64_t* planes) noexcept {
  const auto byte_at = [row](std::size_t j) {
    return static_cast<unsigned>(row[j / 64] >> (j % 64)) & 0xFFU;
  };
  const std::size_t full = cols - cols % 8;
  for (std::size_t j = 0; j < full; j += 8) {
    std::memcpy(planes + j, kByteSpread.words[byte_at(j)],
                sizeof(kByteSpread.words[0]));
  }
  if (full != cols) {
    std::memcpy(planes + full, kByteSpread.words[byte_at(full)],
                (cols - full) * sizeof(std::uint64_t));
  }
}

}  // namespace

std::size_t RowMask::count() const noexcept {
  return simd::active().popcount(words_.data(), words_.size());
}

BitMatrix BitMatrix::from_rows(PackedHVs rows, parallel::ThreadPool* pool) {
  BitMatrix m;
  m.assign_rows(std::move(rows), pool);
  return m;
}

void BitMatrix::assign_rows(PackedHVs rows, parallel::ThreadPool* pool) {
  rows_ = rows.rows();
  cols_ = rows.bits();
  wpc_ = (rows_ + 63) / 64;
  const std::size_t wpr = rows.words_per_row();
  if (cols_ % 64 != 0) {
    const std::uint64_t keep = (1ULL << (cols_ % 64)) - 1ULL;
    for (std::size_t i = 0; i < rows_; ++i) rows.row(i)[wpr - 1] &= keep;
  }
  planes_.resize(cols_ * wpc_);
  if (rows_ == 1) {
    spread_row(rows.row(0), cols_, planes_.data());
  } else {
    // Block (w, b) transposes row word w of row block b into word b of the
    // planes of columns [64w, 64w + 64); no two blocks share a plane word.
    const std::size_t wpc = wpc_;
    const std::size_t cols = cols_;
    const std::size_t total_rows = rows_;
    std::uint64_t* planes = planes_.data();
    parallel::parallel_for_chunks(
        0, wpr * wpc,
        [&rows, planes, wpc, cols, total_rows](std::size_t lo, std::size_t hi) {
          alignas(64) std::uint64_t block[64];
          for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t w = k / wpc;
            const std::size_t b = k % wpc;
            const std::size_t first_col = w * 64;
            const std::size_t n_cols = std::min<std::size_t>(64, cols - first_col);
            const std::size_t first_row = b * 64;
            const std::size_t n_rows = std::min<std::size_t>(64, total_rows - first_row);
            for (std::size_t r = 0; r < n_rows; ++r) {
              block[r] = rows.row(first_row + r)[w];
            }
            transpose_rows(block, n_rows);
            std::uint64_t* out = planes + first_col * wpc + b;
            for (std::size_t c = 0; c < n_cols; ++c) out[c * wpc] = block[c];
          }
        },
        pool);
  }
  row_major_ = std::move(rows);
  valid_ = RowMask::all(rows_);
}

PackedHVs BitMatrix::release_rows() noexcept {
  rows_ = 0;
  cols_ = 0;
  wpc_ = 0;
  planes_.clear();
  valid_ = RowMask();
  return std::exchange(row_major_, PackedHVs());
}

std::size_t BitMatrix::column_popcount(std::size_t j) const noexcept {
  return simd::active().popcount(column(j), wpc_);
}

std::size_t BitMatrix::resident_bytes() const noexcept {
  return (planes_.size() + row_major_.rows() * row_major_.words_per_row() +
          valid_.word_count()) *
         sizeof(std::uint64_t);
}

void BitMatrix::unpack_row(std::size_t i, std::span<double> out) const {
  if (out.size() != cols_) {
    throw std::invalid_argument("BitMatrix::unpack_row: output size mismatch");
  }
  const std::uint64_t* row = row_major_.row(i);
  for (std::size_t j = 0; j < cols_; ++j) {
    out[j] = static_cast<double>((row[j >> 6] >> (j & 63)) & 1ULL);
  }
}

std::vector<double> BitMatrix::row_doubles(std::size_t i) const {
  std::vector<double> out(cols_);
  unpack_row(i, out);
  return out;
}

BitMatrix BitMatrix::subset(std::span<const std::size_t> indices) const {
  PackedHVs sub(cols_, indices.size());
  const std::size_t wpr = row_major_.words_per_row();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] >= rows_) {
      throw std::out_of_range("BitMatrix::subset: row index out of range");
    }
    std::memcpy(sub.row(k), row_major_.row(indices[k]),
                wpr * sizeof(std::uint64_t));
  }
  return from_rows(std::move(sub));
}

}  // namespace hdc::hv
