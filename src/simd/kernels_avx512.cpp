// AVX-512 kernel tier. Compiled with -mavx512f -mavx512vpopcntdq; entered
// only through the dispatch table after a runtime CPU check.
//
// VPOPCNTDQ gives a hardware per-lane popcount, so Hamming/popcount are a
// straight XOR + VPOPCNTQ + ADD stream; ragged tails use masked loads
// (zero-filled lanes contribute nothing) so no scalar epilogue is needed.
// Majority is the bit-sliced ripple-carry counter scheme, 512 columns per
// step, with the carry chain of the threshold test fused into single
// VPTERNLOG majority ops.
//
// The logistic select kernels are floating point: every term is a separate
// multiply and add in the scalar tier's order. -mavx512f implies FMA, so
// this TU is compiled with -ffp-contract=off to keep GCC from fusing them.
// zero_bit_sums is one masked VADDPD per 8 columns and row: a lane whose
// column bit is 1 is not written, so it keeps its exact value.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"

namespace hdc::simd::detail {

namespace {

std::size_t hamming_avx512(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  const std::size_t tail = words - i;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(total));
}

std::size_t popcount_avx512(const std::uint64_t* words, std::size_t n) noexcept {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
  }
  const std::size_t tail = n - i;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    total = _mm512_add_epi64(
        total, _mm512_popcnt_epi64(_mm512_maskz_loadu_epi64(mask, words + i)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(total));
}

std::size_t and_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) noexcept {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  const std::size_t tail = words - i;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(total));
}

std::size_t andnot_popcount_avx512(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t words) noexcept {
  // VPANDN is ~first & second; masked-out tail lanes of b are zero, so the
  // ~a side never leaks set bits past the ragged end.
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_andnot_si512(va, vb)));
  }
  const std::size_t tail = words - i;
  if (tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(mask, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(mask, b + i);
    total = _mm512_add_epi64(total,
                             _mm512_popcnt_epi64(_mm512_andnot_si512(va, vb)));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(total));
}

void majority_avx512(const std::uint64_t* const* rows, std::size_t n,
                     std::size_t words, std::uint64_t* out,
                     bool tie_to_one) noexcept {
  const int planes = std::bit_width(n);
  const std::size_t strict = n / 2 + 1;
  const bool check_tie = (n % 2 == 0) && tie_to_one;

  __m512i counter[64];
  for (std::size_t w = 0; w < words; w += 8) {
    const std::size_t tail = words - w;
    const __mmask8 mask =
        tail >= 8 ? static_cast<__mmask8>(0xffu)
                  : static_cast<__mmask8>((1u << tail) - 1u);
    for (int p = 0; p < planes; ++p) counter[p] = _mm512_setzero_si512();
    for (std::size_t r = 0; r < n; ++r) {
      __m512i carry = _mm512_maskz_loadu_epi64(mask, rows[r] + w);
      for (int p = 0; p < planes; ++p) {
        if (_mm512_test_epi64_mask(carry, carry) == 0) break;
        const __m512i next = _mm512_and_si512(counter[p], carry);
        counter[p] = _mm512_xor_si512(counter[p], carry);
        carry = next;
      }
    }
    const auto mask_ge = [&](std::size_t t) noexcept {
      const std::uint64_t constant = (1ULL << planes) - t;
      __m512i carry = _mm512_setzero_si512();
      for (int p = 0; p < planes; ++p) {
        const __m512i a = counter[p];
        const __m512i b = ((constant >> p) & 1ULL)
                              ? _mm512_set1_epi64(-1)
                              : _mm512_setzero_si512();
        // carry' = (a & b) | (carry & (a ^ b)) == MAJ(a, b, carry): one
        // ternary-logic op (imm 0xE8 = majority truth table).
        carry = _mm512_ternarylogic_epi64(a, b, carry, 0xE8);
      }
      return carry;
    };
    __m512i bits = mask_ge(strict);
    if (check_tie) bits = _mm512_or_si512(bits, mask_ge(n / 2));
    _mm512_mask_storeu_epi64(out + w, mask, bits);
  }
}

/// words == 4 fast path (the 256-bit ANN sketch default): 8 rows per
/// iteration in four 512-bit vectors (two rows each), with the per-row
/// horizontal sums done entirely in-register — two permutex2var transpose
/// rounds reduce 32 lane counts to one vector of 8 row distances, stored
/// with a single 8x32 truncating store. No scalar work inside the loop.
void sketch_scan4_avx512(const std::uint64_t* query, const std::uint64_t* block,
                         std::size_t n, std::uint32_t* out) noexcept {
  // maskz forms (full masks) sidestep GCC's -Wuninitialized noise from the
  // _mm512_undefined-based plain intrinsics; codegen is identical.
  const __m512i vq = _mm512_maskz_broadcast_i64x4(
      static_cast<__mmask8>(0xffu),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query)));
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t* p = block + i * 4;
    const __m512i v0 =
        _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p), vq));
    const __m512i v1 =
        _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p + 8), vq));
    const __m512i v2 =
        _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p + 16), vq));
    const __m512i v3 =
        _mm512_popcnt_epi64(_mm512_xor_si512(_mm512_loadu_si512(p + 24), vq));
    // Lane pairs -> half-row sums for rows 0-3 (c) and 4-7 (d), then the
    // same shuffle once more pairs the halves into whole-row sums.
    const __m512i c = _mm512_add_epi64(_mm512_permutex2var_epi64(v0, even, v1),
                                       _mm512_permutex2var_epi64(v0, odd, v1));
    const __m512i d = _mm512_add_epi64(_mm512_permutex2var_epi64(v2, even, v3),
                                       _mm512_permutex2var_epi64(v2, odd, v3));
    const __m512i sums = _mm512_add_epi64(_mm512_permutex2var_epi64(c, even, d),
                                          _mm512_permutex2var_epi64(c, odd, d));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm512_maskz_cvtepi64_epi32(static_cast<__mmask8>(0xffu), sums));
  }
  alignas(64) std::uint64_t lanes[8];
  while (i < n) {
    const std::size_t group = std::min<std::size_t>(2, n - i);
    const __mmask8 mask = static_cast<__mmask8>((1u << (group * 4)) - 1u);
    const __m512i v = _mm512_maskz_loadu_epi64(mask, block + i * 4);
    _mm512_store_si512(lanes, _mm512_popcnt_epi64(_mm512_xor_si512(v, vq)));
    for (std::size_t r = 0; r < group; ++r) {
      out[i + r] = static_cast<std::uint32_t>(lanes[r * 4] + lanes[r * 4 + 1] +
                                              lanes[r * 4 + 2] +
                                              lanes[r * 4 + 3]);
    }
    i += group;
  }
}

void sketch_scan_avx512(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t n, std::size_t words,
                        std::uint32_t* out) noexcept {
  if (words == 4) {
    sketch_scan4_avx512(query, block, n, out);
    return;
  }
  if (words <= 8) {
    // Pack floor(8 / words) whole rows per 512-bit load against a query
    // replicated to match: one XOR + VPOPCNTQ covers every packed row, and
    // the per-row distances are short scalar sums over the stored lane
    // counts. The 4-word ANN sketch default fits two rows per load.
    const std::size_t rows_per_vec = 8 / words;
    std::uint64_t qrep[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t r = 0; r < rows_per_vec; ++r) {
      for (std::size_t w = 0; w < words; ++w) qrep[r * words + w] = query[w];
    }
    const __m512i vq = _mm512_loadu_si512(qrep);
    std::size_t i = 0;
    alignas(64) std::uint64_t lanes[8];
    while (i < n) {
      const std::size_t group = std::min(rows_per_vec, n - i);
      const std::size_t used = group * words;
      const __mmask8 mask = static_cast<__mmask8>((1u << used) - 1u);
      const __m512i v = _mm512_maskz_loadu_epi64(mask, block + i * words);
      _mm512_store_si512(lanes, _mm512_popcnt_epi64(_mm512_xor_si512(v, vq)));
      for (std::size_t r = 0; r < group; ++r) {
        std::uint64_t d = 0;
        for (std::size_t w = 0; w < words; ++w) d += lanes[r * words + w];
        out[i + r] = static_cast<std::uint32_t>(d);
      }
      i += group;
    }
    return;
  }
  const std::size_t tail = words % 8;
  const __mmask8 tail_mask = static_cast<__mmask8>((1u << tail) - 1u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* row = block + i * words;
    __m512i total = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i vq = _mm512_loadu_si512(query + w);
      const __m512i vr = _mm512_loadu_si512(row + w);
      total = _mm512_add_epi64(total,
                               _mm512_popcnt_epi64(_mm512_xor_si512(vq, vr)));
    }
    if (tail != 0) {
      const __m512i vq = _mm512_maskz_loadu_epi64(tail_mask, query + w);
      const __m512i vr = _mm512_maskz_loadu_epi64(tail_mask, row + w);
      total = _mm512_add_epi64(total,
                               _mm512_popcnt_epi64(_mm512_xor_si512(vq, vr)));
    }
    out[i] = static_cast<std::uint32_t>(_mm512_reduce_add_epi64(total));
  }
}

/// One row per lane, two 8-row vectors: each vector is an independent
/// accumulator chain summing its rows' terms in column order. Column j's
/// blend mask is VPTESTMQ of the rows' words against bit j % 64. Rows past
/// nrows read as zero and their sums are discarded.
void select_dot_avx512(const std::uint64_t* rows, std::size_t nrows,
                       std::size_t cols, const double* z0, const double* z1,
                       const double* w, double bias, double* out) noexcept {
  const std::size_t words = (cols + 63) / 64;
  __m512d acc0 = _mm512_set1_pd(bias);
  __m512d acc1 = acc0;
  alignas(64) std::uint64_t bits[kSelectMaxRows];
  for (std::size_t wi = 0; wi < words; ++wi) {
    for (std::size_t k = 0; k < kSelectMaxRows; ++k) {
      bits[k] = k < nrows ? rows[k * words + wi] : 0;
    }
    const __m512i t0 = _mm512_load_si512(bits);
    const __m512i t1 = _mm512_load_si512(bits + 8);
    __m512i bit = _mm512_set1_epi64(1);
    const std::size_t base = wi * 64;
    const std::size_t width = std::min<std::size_t>(64, cols - base);
    for (std::size_t b = 0; b < width; ++b) {
      const std::size_t j = base + b;
      const __m512d vz0 = _mm512_set1_pd(z0[j]);
      const __m512d vz1 = _mm512_set1_pd(z1[j]);
      const __m512d vw = _mm512_set1_pd(w[j]);
      const __m512d sel0 =
          _mm512_mask_blend_pd(_mm512_test_epi64_mask(t0, bit), vz0, vz1);
      const __m512d sel1 =
          _mm512_mask_blend_pd(_mm512_test_epi64_mask(t1, bit), vz0, vz1);
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(vw, sel0));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(vw, sel1));
      bit = _mm512_add_epi64(bit, bit);  // next column's bit
    }
  }
  alignas(64) double sums[kSelectMaxRows];
  _mm512_store_pd(sums, acc0);
  _mm512_store_pd(sums + 8, acc1);
  for (std::size_t k = 0; k < nrows; ++k) out[k] = sums[k];
}

/// select_axpy over V 8-column vectors of row word `wi`, starting at vector
/// v0 of that word: one column per lane, each lane's grad accumulator takes
/// the rows' terms in row order, and a row's 8-bit column slice is the
/// blend mask directly. `live` marks the word's in-range columns.
template <std::size_t V>
inline void select_axpy_vectors(const std::uint64_t* rows, std::size_t nrows,
                                std::size_t words, std::size_t wi,
                                std::size_t v0, std::uint64_t live,
                                const double* z0, const double* z1,
                                const double* coef, double* grad) noexcept {
  const std::size_t base = wi * 64 + 8 * v0;
  __mmask8 lanes[V];
  __m512d acc[V];
  __m512d vz0[V];
  __m512d vz1[V];
  for (std::size_t v = 0; v < V; ++v) {
    lanes[v] = static_cast<__mmask8>(live >> (8 * (v0 + v)));
    acc[v] = _mm512_maskz_loadu_pd(lanes[v], grad + base + 8 * v);
    vz0[v] = _mm512_maskz_loadu_pd(lanes[v], z0 + base + 8 * v);
    vz1[v] = _mm512_maskz_loadu_pd(lanes[v], z1 + base + 8 * v);
  }
  for (std::size_t k = 0; k < nrows; ++k) {
    const __m512d c = _mm512_set1_pd(coef[k]);
    const std::uint64_t slice = rows[k * words + wi] >> (8 * v0);
    for (std::size_t v = 0; v < V; ++v) {
      const __m512d sel = _mm512_mask_blend_pd(
          static_cast<__mmask8>(slice >> (8 * v)), vz0[v], vz1[v]);
      acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(c, sel));
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm512_mask_storeu_pd(grad + base + 8 * v, lanes[v], acc[v]);
  }
}

/// A whole 64-column word (eight vectors, 24 live registers) per pass; the
/// ragged last word goes one masked vector at a time, so no access starts
/// past `cols`.
void select_axpy_avx512(const std::uint64_t* rows, std::size_t nrows,
                        std::size_t cols, const double* z0, const double* z1,
                        const double* coef, double* grad) noexcept {
  const std::size_t words = (cols + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t width = std::min<std::size_t>(64, cols - wi * 64);
    if (width == 64) {
      select_axpy_vectors<8>(rows, nrows, words, wi, 0, ~0ULL, z0, z1, coef, grad);
      continue;
    }
    const std::uint64_t live = (1ULL << width) - 1u;
    for (std::size_t v0 = 0; 8 * v0 < width; ++v0) {
      select_axpy_vectors<1>(rows, nrows, words, wi, v0, live, z0, z1, coef, grad);
    }
  }
}

/// zero_bit_sums over V 8-column vectors of row word `wi`, starting at
/// vector v0 of that word: one column per lane, and the 2V accumulators stay
/// in registers over all selected rows. A row's complemented 8-bit column
/// slice is the add mask directly; unmasked lanes keep their exact bits.
/// `live` marks the word's in-range columns.
template <std::size_t V>
inline void zero_bit_sums_vectors(const std::uint64_t* base,
                                  std::size_t words_per_row,
                                  const std::uint32_t* rows, std::size_t nrows,
                                  std::size_t wi, std::size_t v0,
                                  std::uint64_t live, const double* a,
                                  const double* b, double* sum_a,
                                  double* sum_b) noexcept {
  const std::size_t j0 = wi * 64 + 8 * v0;
  __mmask8 lanes[V];
  __m512d acc_a[V];
  __m512d acc_b[V];
  for (std::size_t v = 0; v < V; ++v) {
    lanes[v] = static_cast<__mmask8>(live >> (8 * (v0 + v)));
    acc_a[v] = _mm512_maskz_loadu_pd(lanes[v], sum_a + j0 + 8 * v);
    acc_b[v] = _mm512_maskz_loadu_pd(lanes[v], sum_b + j0 + 8 * v);
  }
  for (std::size_t k = 0; k < nrows; ++k) {
    const std::uint64_t zeros = ~base[rows[k] * words_per_row + wi] >> (8 * v0);
    const __m512d va = _mm512_set1_pd(a[k]);
    const __m512d vb = _mm512_set1_pd(b[k]);
    for (std::size_t v = 0; v < V; ++v) {
      const __mmask8 m = static_cast<__mmask8>(zeros >> (8 * v));
      acc_a[v] = _mm512_mask_add_pd(acc_a[v], m, acc_a[v], va);
      acc_b[v] = _mm512_mask_add_pd(acc_b[v], m, acc_b[v], vb);
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm512_mask_storeu_pd(sum_a + j0 + 8 * v, lanes[v], acc_a[v]);
    _mm512_mask_storeu_pd(sum_b + j0 + 8 * v, lanes[v], acc_b[v]);
  }
}

/// A whole 64-column word (16 accumulators) per pass over the rows; the
/// ragged last word goes one masked vector at a time, so no access starts
/// past `cols`.
void zero_bit_sums_avx512(const std::uint64_t* base, std::size_t words_per_row,
                          const std::uint32_t* rows, std::size_t nrows,
                          std::size_t cols, const double* a, const double* b,
                          double* sum_a, double* sum_b) noexcept {
  const std::size_t words = (cols + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t width = std::min<std::size_t>(64, cols - wi * 64);
    if (width == 64) {
      zero_bit_sums_vectors<8>(base, words_per_row, rows, nrows, wi, 0, ~0ULL,
                               a, b, sum_a, sum_b);
      continue;
    }
    const std::uint64_t live = (1ULL << width) - 1u;
    for (std::size_t v0 = 0; 8 * v0 < width; ++v0) {
      zero_bit_sums_vectors<1>(base, words_per_row, rows, nrows, wi, v0, live,
                               a, b, sum_a, sum_b);
    }
  }
}

}  // namespace

const Kernels& avx512_kernels() noexcept {
  static const Kernels table{hamming_avx512,      popcount_avx512,
                             and_popcount_avx512, andnot_popcount_avx512,
                             majority_avx512,     sketch_scan_avx512,
                             select_dot_avx512,   select_axpy_avx512,
                             zero_bit_sums_avx512};
  return table;
}

}  // namespace hdc::simd::detail
