// Scalar kernel tier: portable std::popcount loops. Always compiled; every
// SIMD tier is property-tested bit-exact against these implementations.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"

namespace hdc::simd::detail {

namespace {

std::size_t hamming_scalar(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::size_t popcount_scalar(const std::uint64_t* words, std::size_t n) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return total;
}

std::size_t and_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

std::size_t andnot_popcount_scalar(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t words) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(std::popcount(~a[i] & b[i]));
  }
  return total;
}

/// Bit-sliced majority: each column's ones-count is held as a little-endian
/// binary number spread across `planes` words, so adding one row is a
/// ripple-carry add of 64 columns at once. The threshold test "count >= t"
/// is the carry-out of count + (2^planes - t) rippled through the planes.
void majority_scalar(const std::uint64_t* const* rows, std::size_t n,
                     std::size_t words, std::uint64_t* out,
                     bool tie_to_one) noexcept {
  const int planes = std::bit_width(n);  // counts span [0, n]
  const std::size_t strict = n / 2 + 1;  // 2*count > n
  const bool check_tie = (n % 2 == 0) && tie_to_one;
  std::uint64_t counter[64];
  for (std::size_t w = 0; w < words; ++w) {
    for (int p = 0; p < planes; ++p) counter[p] = 0;
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t carry = rows[r][w];
      for (int p = 0; p < planes && carry != 0; ++p) {
        const std::uint64_t next = counter[p] & carry;
        counter[p] ^= carry;
        carry = next;
      }
    }
    const auto mask_ge = [&](std::size_t t) {
      const std::uint64_t constant = (1ULL << planes) - t;
      std::uint64_t carry = 0;
      for (int p = 0; p < planes; ++p) {
        const std::uint64_t a = counter[p];
        const std::uint64_t b = ((constant >> p) & 1ULL) ? ~0ULL : 0ULL;
        carry = (a & b) | (carry & (a ^ b));
      }
      return carry;
    };
    std::uint64_t bits = mask_ge(strict);
    if (check_tie) bits |= mask_ge(n / 2);
    out[w] = bits;
  }
}

/// Fixed-width row scan: the compiler unrolls the inner loop completely, so
/// the common sketch widths (1–8 words) run without per-row loop overhead.
template <std::size_t W>
void sketch_scan_fixed(const std::uint64_t* query, const std::uint64_t* block,
                       std::size_t n, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* row = block + i * W;
    std::uint32_t d = 0;
    for (std::size_t w = 0; w < W; ++w) {
      d += static_cast<std::uint32_t>(std::popcount(query[w] ^ row[w]));
    }
    out[i] = d;
  }
}

void sketch_scan_scalar(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t n, std::size_t words,
                        std::uint32_t* out) noexcept {
  switch (words) {
    case 1: return sketch_scan_fixed<1>(query, block, n, out);
    case 2: return sketch_scan_fixed<2>(query, block, n, out);
    case 3: return sketch_scan_fixed<3>(query, block, n, out);
    case 4: return sketch_scan_fixed<4>(query, block, n, out);
    case 5: return sketch_scan_fixed<5>(query, block, n, out);
    case 6: return sketch_scan_fixed<6>(query, block, n, out);
    case 7: return sketch_scan_fixed<7>(query, block, n, out);
    case 8: return sketch_scan_fixed<8>(query, block, n, out);
    default: break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        hamming_scalar(query, block + i * words, words));
  }
}

/// Rows per select_dot pass: enough independent accumulator chains to hide
/// the add latency, few enough to stay in registers.
constexpr std::size_t kDotGroup = 8;

/// The selects index a 2-entry {z0[j], z1[j]} pair by the row's low bit
/// and shift the word: branch-free, where a per-element ternary compiles
/// to mispredicted branches on random bits.
void select_dot_scalar(const std::uint64_t* rows, std::size_t nrows,
                       std::size_t cols, const double* z0, const double* z1,
                       const double* w, double bias, double* out) noexcept {
  const std::size_t words = (cols + 63) / 64;
  for (std::size_t k0 = 0; k0 < nrows; k0 += kDotGroup) {
    const std::size_t group = std::min(kDotGroup, nrows - k0);
    double acc[kDotGroup];
    for (double& a : acc) a = bias;
    for (std::size_t wi = 0; wi < words; ++wi) {
      // Rows past the group's end read as zero; their sums are discarded.
      std::uint64_t bits[kDotGroup] = {};
      for (std::size_t k = 0; k < group; ++k) bits[k] = rows[(k0 + k) * words + wi];
      const std::size_t end = std::min(cols, (wi + 1) * 64);
      for (std::size_t j = wi * 64; j < end; ++j) {
        const double pair[2] = {z0[j], z1[j]};
        for (std::size_t k = 0; k < kDotGroup; ++k) {
          acc[k] = acc[k] + w[j] * pair[bits[k] & 1u];
          bits[k] >>= 1;
        }
      }
    }
    for (std::size_t k = 0; k < group; ++k) out[k0 + k] = acc[k];
  }
}

/// grad[j0 .. j0+C) for one row word: C independent column chains, each
/// taking the rows' terms in row order. `b` is column j0's bit position.
template <std::size_t C>
inline void select_axpy_columns(const std::uint64_t* bits, std::size_t nrows,
                                std::size_t j0, unsigned b, const double* z0,
                                const double* z1, const double* coef,
                                double* grad) noexcept {
  double pair[C][2];
  double g[C];
  for (std::size_t c = 0; c < C; ++c) {
    pair[c][0] = z0[j0 + c];
    pair[c][1] = z1[j0 + c];
    g[c] = grad[j0 + c];
  }
  for (std::size_t k = 0; k < nrows; ++k) {
    const std::uint64_t slice = bits[k] >> b;
    for (std::size_t c = 0; c < C; ++c) {
      g[c] = g[c] + coef[k] * pair[c][(slice >> c) & 1u];
    }
  }
  for (std::size_t c = 0; c < C; ++c) grad[j0 + c] = g[c];
}

void select_axpy_scalar(const std::uint64_t* rows, std::size_t nrows,
                        std::size_t cols, const double* z0, const double* z1,
                        const double* coef, double* grad) noexcept {
  constexpr std::size_t kColumnGroup = 8;
  const std::size_t words = (cols + 63) / 64;
  std::uint64_t bits[kSelectMaxRows];
  for (std::size_t wi = 0; wi < words; ++wi) {
    for (std::size_t k = 0; k < nrows; ++k) bits[k] = rows[k * words + wi];
    const std::size_t base = wi * 64;
    const std::size_t end = std::min(cols, base + 64);
    std::size_t j = base;
    for (; j + kColumnGroup <= end; j += kColumnGroup) {
      select_axpy_columns<kColumnGroup>(bits, nrows, j, static_cast<unsigned>(j - base),
                                        z0, z1, coef, grad);
    }
    for (; j < end; ++j) {
      select_axpy_columns<1>(bits, nrows, j, static_cast<unsigned>(j - base), z0,
                             z1, coef, grad);
    }
  }
}

/// One 64-column row word at a time, so that word's 128 sums stay in L1
/// while every selected row passes over it; within a row only the zero
/// bits are visited.
void zero_bit_sums_scalar(const std::uint64_t* base, std::size_t words_per_row,
                          const std::uint32_t* rows, std::size_t nrows,
                          std::size_t cols, const double* a, const double* b,
                          double* sum_a, double* sum_b) noexcept {
  const std::size_t words = (cols + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t width = std::min<std::size_t>(64, cols - wi * 64);
    const std::uint64_t live = width == 64 ? ~0ULL : (1ULL << width) - 1;
    double* sa = sum_a + wi * 64;
    double* sb = sum_b + wi * 64;
    for (std::size_t k = 0; k < nrows; ++k) {
      std::uint64_t zeros = ~base[rows[k] * words_per_row + wi] & live;
      const double ak = a[k];
      const double bk = b[k];
      while (zeros != 0) {
        const int j = std::countr_zero(zeros);
        sa[j] = sa[j] + ak;
        sb[j] = sb[j] + bk;
        zeros &= zeros - 1;
      }
    }
  }
}

}  // namespace

const Kernels& scalar_kernels() noexcept {
  static const Kernels table{hamming_scalar,      popcount_scalar,
                             and_popcount_scalar, andnot_popcount_scalar,
                             majority_scalar,     sketch_scan_scalar,
                             select_dot_scalar,   select_axpy_scalar,
                             zero_bit_sums_scalar};
  return table;
}

}  // namespace hdc::simd::detail
