// AVX2 kernel tier. This translation unit is compiled with -mavx2 (and only
// ever entered through the dispatch table after a runtime CPU check).
//
// Popcount / Hamming use the Harley–Seal carry-save-adder scheme over blocks
// of 16 256-bit vectors: CSAs compress 16 input vectors into one vector of
// sixteens-weight digits plus carry planes, so the (comparatively expensive)
// byte-LUT popcount runs once per 16 loads instead of once per load. Digit
// counts are materialised with a nibble shuffle LUT and accumulated with
// PSADBW into four 64-bit lanes.
//
// Majority uses the same bit-sliced ripple-carry counters as the scalar
// tier, just 256 columns per step instead of 64.
//
// The logistic select kernels are floating point: every term is a separate
// multiply and add in the scalar tier's order (this TU is compiled with
// -ffp-contract=off), so results are bit-identical across tiers. The
// zero_bit_sums kernel adds and then blends the old value back into lanes
// whose column bit is 1, which leaves those lanes bit-exact.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels.hpp"

namespace hdc::simd::detail {

namespace {

inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

/// Per-64-bit-lane popcount of `v`, as four u64 counts.
inline __m256i popcount_lanes(__m256i v) noexcept {
  return _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256());
}

/// Carry-save adder: (h, l) = a + b + c per bit column.
inline void csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline std::uint64_t horizontal_sum(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

/// Harley–Seal popcount of `n_vecs` vectors produced by `load(i)`, plus a
/// scalar tail over `tail` words produced by `tail_word(w)` — each caller
/// supplies its own combine (xor / and / andnot / identity) for both.
template <typename LoadFn, typename TailFn>
std::size_t popcount_harley_seal(const LoadFn& load, std::size_t n_vecs,
                                 const TailFn& tail_word,
                                 std::size_t tail) noexcept {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n_vecs; i += 16) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    csa(twos_a, ones, ones, load(i + 0), load(i + 1));
    csa(twos_b, ones, ones, load(i + 2), load(i + 3));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 4), load(i + 5));
    csa(twos_b, ones, ones, load(i + 6), load(i + 7));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, load(i + 8), load(i + 9));
    csa(twos_b, ones, ones, load(i + 10), load(i + 11));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 12), load(i + 13));
    csa(twos_b, ones, ones, load(i + 14), load(i + 15));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, popcount_lanes(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(popcount_lanes(eights), 3));
  total = _mm256_add_epi64(total,
                           _mm256_slli_epi64(popcount_lanes(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_lanes(twos), 1));
  total = _mm256_add_epi64(total, popcount_lanes(ones));
  for (; i < n_vecs; ++i) {
    total = _mm256_add_epi64(total, popcount_lanes(load(i)));
  }
  std::size_t sum = static_cast<std::size_t>(horizontal_sum(total));
  for (std::size_t w = 0; w < tail; ++w) {
    sum += static_cast<std::size_t>(std::popcount(tail_word(w)));
  }
  return sum;
}

std::size_t hamming_avx2(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept {
  const std::size_t n_vecs = words / 4;
  const auto load = [a, b](std::size_t i) noexcept {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * i));
    return _mm256_xor_si256(va, vb);
  };
  const std::uint64_t* ta = a + 4 * n_vecs;
  const std::uint64_t* tb = b + 4 * n_vecs;
  const auto tail = [ta, tb](std::size_t w) noexcept { return ta[w] ^ tb[w]; };
  return popcount_harley_seal(load, n_vecs, tail, words % 4);
}

std::size_t popcount_avx2(const std::uint64_t* words, std::size_t n) noexcept {
  const std::size_t n_vecs = n / 4;
  const auto load = [words](std::size_t i) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + 4 * i));
  };
  const std::uint64_t* tw = words + 4 * n_vecs;
  const auto tail = [tw](std::size_t w) noexcept { return tw[w]; };
  return popcount_harley_seal(load, n_vecs, tail, n % 4);
}

std::size_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  const std::size_t n_vecs = words / 4;
  const auto load = [a, b](std::size_t i) noexcept {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * i));
    return _mm256_and_si256(va, vb);
  };
  const std::uint64_t* ta = a + 4 * n_vecs;
  const std::uint64_t* tb = b + 4 * n_vecs;
  const auto tail = [ta, tb](std::size_t w) noexcept { return ta[w] & tb[w]; };
  return popcount_harley_seal(load, n_vecs, tail, words % 4);
}

std::size_t andnot_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words) noexcept {
  const std::size_t n_vecs = words / 4;
  // VPANDN computes ~first & second, matching popcount(~a & b) directly.
  const auto load = [a, b](std::size_t i) noexcept {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * i));
    return _mm256_andnot_si256(va, vb);
  };
  const std::uint64_t* ta = a + 4 * n_vecs;
  const std::uint64_t* tb = b + 4 * n_vecs;
  const auto tail = [ta, tb](std::size_t w) noexcept { return ~ta[w] & tb[w]; };
  return popcount_harley_seal(load, n_vecs, tail, words % 4);
}

void majority_avx2(const std::uint64_t* const* rows, std::size_t n,
                   std::size_t words, std::uint64_t* out,
                   bool tie_to_one) noexcept {
  const int planes = std::bit_width(n);
  const std::size_t strict = n / 2 + 1;
  const bool check_tie = (n % 2 == 0) && tie_to_one;
  const std::size_t vec_words = (words / 4) * 4;

  __m256i counter[64];
  for (std::size_t w = 0; w < vec_words; w += 4) {
    for (int p = 0; p < planes; ++p) counter[p] = _mm256_setzero_si256();
    for (std::size_t r = 0; r < n; ++r) {
      __m256i carry =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + w));
      for (int p = 0; p < planes; ++p) {
        if (_mm256_testz_si256(carry, carry)) break;
        const __m256i next = _mm256_and_si256(counter[p], carry);
        counter[p] = _mm256_xor_si256(counter[p], carry);
        carry = next;
      }
    }
    const auto mask_ge = [&](std::size_t t) noexcept {
      const std::uint64_t constant = (1ULL << planes) - t;
      __m256i carry = _mm256_setzero_si256();
      for (int p = 0; p < planes; ++p) {
        const __m256i a = counter[p];
        const __m256i b = ((constant >> p) & 1ULL)
                              ? _mm256_set1_epi64x(-1)
                              : _mm256_setzero_si256();
        carry = _mm256_or_si256(
            _mm256_and_si256(a, b),
            _mm256_and_si256(carry, _mm256_xor_si256(a, b)));
      }
      return carry;
    };
    __m256i bits = mask_ge(strict);
    if (check_tie) bits = _mm256_or_si256(bits, mask_ge(n / 2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), bits);
  }

  // Scalar bit-sliced pass over the remaining (< 4) words.
  std::uint64_t scounter[64];
  for (std::size_t w = vec_words; w < words; ++w) {
    for (int p = 0; p < planes; ++p) scounter[p] = 0;
    for (std::size_t r = 0; r < n; ++r) {
      std::uint64_t carry = rows[r][w];
      for (int p = 0; p < planes && carry != 0; ++p) {
        const std::uint64_t next = scounter[p] & carry;
        scounter[p] ^= carry;
        carry = next;
      }
    }
    const auto mask_ge = [&](std::size_t t) noexcept {
      const std::uint64_t constant = (1ULL << planes) - t;
      std::uint64_t carry = 0;
      for (int p = 0; p < planes; ++p) {
        const std::uint64_t a = scounter[p];
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

/// Four 4-word rows per iteration against a query that loads once: each
/// row is one XOR + PSADBW (four u64 lane counts), and the four lane-count
/// vectors transpose-sum into one vector of four row distances. The 4-word
/// case is the ANN default (256-bit sketches).
void sketch_scan4_avx2(const std::uint64_t* query, const std::uint64_t* block,
                       std::size_t n, std::uint32_t* out) noexcept {
  const __m256i vq =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto row_counts = [&](std::size_t r) noexcept {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + (i + r) * 4));
      return popcount_lanes(_mm256_xor_si256(v, vq));
    };
    const __m256i r0 = row_counts(0);
    const __m256i r1 = row_counts(1);
    const __m256i r2 = row_counts(2);
    const __m256i r3 = row_counts(3);
    // Pairwise halves per 128-bit lane, then cross-lane gather: the result
    // holds {d0, d1, d2, d3} as u64 lanes.
    const __m256i p01 = _mm256_add_epi64(_mm256_unpacklo_epi64(r0, r1),
                                         _mm256_unpackhi_epi64(r0, r1));
    const __m256i p23 = _mm256_add_epi64(_mm256_unpacklo_epi64(r2, r3),
                                         _mm256_unpackhi_epi64(r2, r3));
    const __m256i sums =
        _mm256_add_epi64(_mm256_permute2x128_si256(p01, p23, 0x20),
                         _mm256_permute2x128_si256(p01, p23, 0x31));
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sums);
    out[i + 0] = static_cast<std::uint32_t>(lanes[0]);
    out[i + 1] = static_cast<std::uint32_t>(lanes[1]);
    out[i + 2] = static_cast<std::uint32_t>(lanes[2]);
    out[i + 3] = static_cast<std::uint32_t>(lanes[3]);
  }
  for (; i < n; ++i) {
    const std::uint64_t* row = block + i * 4;
    out[i] = static_cast<std::uint32_t>(
        std::popcount(query[0] ^ row[0]) + std::popcount(query[1] ^ row[1]) +
        std::popcount(query[2] ^ row[2]) + std::popcount(query[3] ^ row[3]));
  }
}

void sketch_scan_avx2(const std::uint64_t* query, const std::uint64_t* block,
                      std::size_t n, std::size_t words,
                      std::uint32_t* out) noexcept {
  if (words == 4) return sketch_scan4_avx2(query, block, n, out);
  const std::size_t n_vecs = words / 4;
  const std::size_t tail = words % 4;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* row = block + i * words;
    __m256i total = _mm256_setzero_si256();
    std::size_t v = 0;
    while (v < n_vecs) {
      // Byte counters hold at most 8 per vector; flushing through PSADBW
      // every 31 vectors keeps them from saturating.
      const std::size_t stop = std::min(n_vecs, v + 31);
      __m256i acc = _mm256_setzero_si256();
      for (; v < stop; ++v) {
        const __m256i vq = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(query + 4 * v));
        const __m256i vr =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4 * v));
        acc = _mm256_add_epi8(acc, popcount_bytes(_mm256_xor_si256(vq, vr)));
      }
      total = _mm256_add_epi64(total,
                               _mm256_sad_epu8(acc, _mm256_setzero_si256()));
    }
    std::size_t d = static_cast<std::size_t>(horizontal_sum(total));
    for (std::size_t w = words - tail; w < words; ++w) {
      d += static_cast<std::size_t>(std::popcount(query[w] ^ row[w]));
    }
    out[i] = static_cast<std::uint32_t>(d);
  }
}

/// Row word `wi` of each row in the block, zero-filled to kSelectMaxRows.
inline void load_row_words(const std::uint64_t* rows, std::size_t nrows,
                           std::size_t words, std::size_t wi,
                           std::uint64_t* out) noexcept {
  for (std::size_t k = 0; k < kSelectMaxRows; ++k) {
    out[k] = k < nrows ? rows[k * words + wi] : 0;
  }
}

/// One row per lane, four 4-row vectors: each vector is an independent
/// accumulator chain summing its rows' terms in column order. Column j's
/// bit is shifted up to the sign bit, which is all BLENDVPD reads. Rows
/// past nrows read as zero and their sums are discarded.
void select_dot_avx2(const std::uint64_t* rows, std::size_t nrows,
                     std::size_t cols, const double* z0, const double* z1,
                     const double* w, double bias, double* out) noexcept {
  constexpr std::size_t kVecs = kSelectMaxRows / 4;
  const std::size_t words = (cols + 63) / 64;
  __m256d acc[kVecs];
  for (__m256d& a : acc) a = _mm256_set1_pd(bias);
  alignas(32) std::uint64_t bits[kSelectMaxRows];
  for (std::size_t wi = 0; wi < words; ++wi) {
    load_row_words(rows, nrows, words, wi, bits);
    __m256i t[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      t[v] = _mm256_load_si256(reinterpret_cast<const __m256i*>(bits + 4 * v));
    }
    const std::size_t base = wi * 64;
    const std::size_t width = std::min<std::size_t>(64, cols - base);
    for (std::size_t b = 0; b < width; ++b) {
      const std::size_t j = base + b;
      const __m256d vz0 = _mm256_broadcast_sd(z0 + j);
      const __m256d vz1 = _mm256_broadcast_sd(z1 + j);
      const __m256d vw = _mm256_broadcast_sd(w + j);
      const __m128i shift = _mm_cvtsi64_si128(static_cast<long long>(63 - b));
      for (std::size_t v = 0; v < kVecs; ++v) {
        const __m256d sign = _mm256_castsi256_pd(_mm256_sll_epi64(t[v], shift));
        const __m256d sel = _mm256_blendv_pd(vz0, vz1, sign);
        acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(vw, sel));
      }
    }
  }
  alignas(32) double sums[kSelectMaxRows];
  for (std::size_t v = 0; v < kVecs; ++v) _mm256_store_pd(sums + 4 * v, acc[v]);
  for (std::size_t k = 0; k < nrows; ++k) out[k] = sums[k];
}

/// Lane masks for a 4-bit column group: entry m has lane i all-ones where
/// bit i of m is set.
alignas(32) constexpr std::int64_t kNibbleLanes[16][4] = {
    {0, 0, 0, 0},   {-1, 0, 0, 0},   {0, -1, 0, 0},   {-1, -1, 0, 0},
    {0, 0, -1, 0},  {-1, 0, -1, 0},  {0, -1, -1, 0},  {-1, -1, -1, 0},
    {0, 0, 0, -1},  {-1, 0, 0, -1},  {0, -1, 0, -1},  {-1, -1, 0, -1},
    {0, 0, -1, -1}, {-1, 0, -1, -1}, {0, -1, -1, -1}, {-1, -1, -1, -1}};

/// One column per lane, 16 columns (four vectors) at a time: each lane's
/// grad accumulator takes the rows' terms in row order. A row's 4-bit
/// column slice picks its blend mask from kNibbleLanes. Columns of a
/// partial 16-column group run the same multiply-then-add in scalar code.
void select_axpy_avx2(const std::uint64_t* rows, std::size_t nrows,
                      std::size_t cols, const double* z0, const double* z1,
                      const double* coef, double* grad) noexcept {
  const std::size_t words = (cols + 63) / 64;
  std::uint64_t bits[kSelectMaxRows];
  for (std::size_t wi = 0; wi < words; ++wi) {
    load_row_words(rows, nrows, words, wi, bits);
    const std::size_t base = wi * 64;
    const std::size_t width = std::min<std::size_t>(64, cols - base);
    std::size_t g = 0;
    for (; g + 16 <= width; g += 16) {
      const std::size_t j = base + g;
      __m256d acc[4];
      for (std::size_t v = 0; v < 4; ++v) acc[v] = _mm256_loadu_pd(grad + j + 4 * v);
      for (std::size_t k = 0; k < nrows; ++k) {
        const __m256d c = _mm256_set1_pd(coef[k]);
        const std::uint64_t slice = bits[k] >> g;
        for (std::size_t v = 0; v < 4; ++v) {
          const __m256d mask = _mm256_castsi256_pd(_mm256_load_si256(
              reinterpret_cast<const __m256i*>(kNibbleLanes[(slice >> (4 * v)) & 15u])));
          const __m256d sel = _mm256_blendv_pd(_mm256_loadu_pd(z0 + j + 4 * v),
                                               _mm256_loadu_pd(z1 + j + 4 * v), mask);
          acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(c, sel));
        }
      }
      for (std::size_t v = 0; v < 4; ++v) _mm256_storeu_pd(grad + j + 4 * v, acc[v]);
    }
    for (; g < width; ++g) {
      const std::size_t j = base + g;
      const double pair[2] = {z0[j], z1[j]};
      double sum = grad[j];
      for (std::size_t k = 0; k < nrows; ++k) {
        sum = sum + coef[k] * pair[(bits[k] >> g) & 1u];
      }
      grad[j] = sum;
    }
  }
}

/// One column per lane, 16 columns (four vectors per sum) per pass over
/// the rows. AVX2 has no masked add: each lane computes acc + a and
/// BLENDVPD keeps the old acc where the column bit is 1, so those lanes
/// keep their exact bits. The mask comes from the row's complemented 4-bit
/// column slice via kNibbleLanes. Columns of a partial 16-column group run
/// the same adds in scalar code.
void zero_bit_sums_avx2(const std::uint64_t* base, std::size_t words_per_row,
                        const std::uint32_t* rows, std::size_t nrows,
                        std::size_t cols, const double* a, const double* b,
                        double* sum_a, double* sum_b) noexcept {
  const std::size_t words = (cols + 63) / 64;
  for (std::size_t wi = 0; wi < words; ++wi) {
    const std::size_t width = std::min<std::size_t>(64, cols - wi * 64);
    std::size_t g = 0;
    for (; g + 16 <= width; g += 16) {
      const std::size_t j = wi * 64 + g;
      __m256d acc_a[4];
      __m256d acc_b[4];
      for (std::size_t v = 0; v < 4; ++v) {
        acc_a[v] = _mm256_loadu_pd(sum_a + j + 4 * v);
        acc_b[v] = _mm256_loadu_pd(sum_b + j + 4 * v);
      }
      for (std::size_t k = 0; k < nrows; ++k) {
        const std::uint64_t zeros = ~base[rows[k] * words_per_row + wi] >> g;
        const __m256d va = _mm256_broadcast_sd(a + k);
        const __m256d vb = _mm256_broadcast_sd(b + k);
        for (std::size_t v = 0; v < 4; ++v) {
          const __m256d mask = _mm256_castsi256_pd(_mm256_load_si256(
              reinterpret_cast<const __m256i*>(kNibbleLanes[(zeros >> (4 * v)) & 15u])));
          acc_a[v] = _mm256_blendv_pd(acc_a[v], _mm256_add_pd(acc_a[v], va), mask);
          acc_b[v] = _mm256_blendv_pd(acc_b[v], _mm256_add_pd(acc_b[v], vb), mask);
        }
      }
      for (std::size_t v = 0; v < 4; ++v) {
        _mm256_storeu_pd(sum_a + j + 4 * v, acc_a[v]);
        _mm256_storeu_pd(sum_b + j + 4 * v, acc_b[v]);
      }
    }
    for (; g < width; ++g) {
      const std::size_t j = wi * 64 + g;
      double sa = sum_a[j];
      double sb = sum_b[j];
      for (std::size_t k = 0; k < nrows; ++k) {
        if (((base[rows[k] * words_per_row + wi] >> g) & 1u) == 0) {
          sa = sa + a[k];
          sb = sb + b[k];
        }
      }
      sum_a[j] = sa;
      sum_b[j] = sb;
    }
  }
}

}  // namespace

const Kernels& avx2_kernels() noexcept {
  static const Kernels table{hamming_avx2,         popcount_avx2,
                             and_popcount_avx2,    andnot_popcount_avx2,
                             majority_avx2,        sketch_scan_avx2,
                             select_dot_avx2,      select_axpy_avx2,
                             zero_bit_sums_avx2};
  return table;
}

}  // namespace hdc::simd::detail
