// Property tests for the SIMD kernel dispatch layer (src/simd).
//
// Every compiled tier must match the scalar tier bit-exactly on randomized
// inputs, including widths that are not a multiple of any vector register
// (the canonical 10,000-bit hypervector is 157 words — 39 AVX2 vectors
// plus one word, 19 AVX-512 vectors plus five words). The scalar reference
// here is computed with naive loops, NOT through the kernel table, so a bug
// in the scalar tier cannot self-validate.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "eval/cross_validation.hpp"
#include "hv/bitvector.hpp"
#include "hv/ops.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace {

using hdc::simd::Tier;

/// Restores the dispatch tier active at construction time on scope exit, so
/// tests that force tiers cannot leak into each other.
class TierGuard {
 public:
  TierGuard() : saved_(hdc::simd::active_tier()) {}
  ~TierGuard() { hdc::simd::set_tier(saved_); }

 private:
  Tier saved_;
};

std::vector<std::uint64_t> random_words(std::size_t n, hdc::util::Rng& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng();
  return out;
}

std::size_t naive_popcount(const std::vector<std::uint64_t>& words) {
  std::size_t total = 0;
  for (const std::uint64_t w : words) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

// Word counts straddling the AVX2 (4-word) and AVX-512 (8-word) vector
// widths, Harley–Seal block boundaries (64 words per AVX2 block), and the
// canonical 10,000-bit = 157-word hypervector.
const std::size_t kWordCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31,
                                   39, 63, 64, 65, 127, 128, 157, 200};

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(hdc::simd::tier_compiled(Tier::kScalar));
  EXPECT_TRUE(hdc::simd::tier_supported(Tier::kScalar));
  const std::vector<Tier> tiers = hdc::simd::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  EXPECT_TRUE(std::is_sorted(tiers.begin(), tiers.end()));
}

TEST(SimdDispatch, TierNameParseRoundTrip) {
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    const auto parsed = hdc::simd::parse_tier(hdc::simd::tier_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(hdc::simd::parse_tier("avx1024").has_value());
  EXPECT_FALSE(hdc::simd::parse_tier("").has_value());
  EXPECT_FALSE(hdc::simd::parse_tier("Scalar").has_value());
}

// set_tier / active_tier round trip over every supported tier — the same
// override surface the HDC_SIMD environment variable drives at startup.
TEST(SimdDispatch, SetTierRoundTrip) {
  TierGuard guard;
  for (const Tier t : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(t);
    EXPECT_EQ(hdc::simd::active_tier(), t);
    EXPECT_EQ(&hdc::simd::active(), &hdc::simd::kernels(t));
  }
  hdc::simd::reset_tier();
  EXPECT_EQ(hdc::simd::active_tier(), hdc::simd::supported_tiers().back());
}

TEST(SimdDispatch, UnsupportedTierThrows) {
  for (const Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (hdc::simd::tier_supported(t)) continue;
    EXPECT_THROW((void)hdc::simd::kernels(t), std::invalid_argument);
    EXPECT_THROW(hdc::simd::set_tier(t), std::invalid_argument);
  }
}

TEST(SimdKernels, HammingMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(2023);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    const std::vector<std::uint64_t> b = random_words(words, rng);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < words; ++i) {
      expected += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    }
    for (const Tier t : hdc::simd::supported_tiers()) {
      EXPECT_EQ(hdc::simd::kernels(t).hamming(a.data(), b.data(), words), expected)
          << "tier=" << hdc::simd::tier_name(t) << " words=" << words;
    }
  }
}

TEST(SimdKernels, HammingExtremes) {
  const std::vector<std::uint64_t> zeros(157, 0ULL);
  const std::vector<std::uint64_t> ones(157, ~0ULL);
  for (const Tier t : hdc::simd::supported_tiers()) {
    const auto& k = hdc::simd::kernels(t);
    EXPECT_EQ(k.hamming(zeros.data(), zeros.data(), 157), 0u);
    EXPECT_EQ(k.hamming(zeros.data(), ones.data(), 157), 157u * 64u);
    EXPECT_EQ(k.popcount(ones.data(), 157), 157u * 64u);
    EXPECT_EQ(k.popcount(zeros.data(), 157), 0u);
  }
}

TEST(SimdKernels, AndPopcountMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(31);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    const std::vector<std::uint64_t> b = random_words(words, rng);
    std::size_t expected_and = 0;
    std::size_t expected_andnot = 0;
    for (std::size_t i = 0; i < words; ++i) {
      expected_and += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
      expected_andnot += static_cast<std::size_t>(std::popcount(~a[i] & b[i]));
    }
    for (const Tier t : hdc::simd::supported_tiers()) {
      const auto& k = hdc::simd::kernels(t);
      EXPECT_EQ(k.and_popcount(a.data(), b.data(), words), expected_and)
          << "tier=" << hdc::simd::tier_name(t) << " words=" << words;
      EXPECT_EQ(k.andnot_popcount(a.data(), b.data(), words), expected_andnot)
          << "tier=" << hdc::simd::tier_name(t) << " words=" << words;
    }
  }
}

TEST(SimdKernels, AndPopcountExtremes) {
  const std::vector<std::uint64_t> zeros(157, 0ULL);
  const std::vector<std::uint64_t> ones(157, ~0ULL);
  for (const Tier t : hdc::simd::supported_tiers()) {
    const auto& k = hdc::simd::kernels(t);
    EXPECT_EQ(k.and_popcount(ones.data(), ones.data(), 157), 157u * 64u);
    EXPECT_EQ(k.and_popcount(zeros.data(), ones.data(), 157), 0u);
    // andnot is popcount(~a & b): complement of all-zero selects everything.
    EXPECT_EQ(k.andnot_popcount(zeros.data(), ones.data(), 157), 157u * 64u);
    EXPECT_EQ(k.andnot_popcount(ones.data(), ones.data(), 157), 0u);
    EXPECT_EQ(k.andnot_popcount(ones.data(), zeros.data(), 157), 0u);
  }
}

// The split-search identity the tree kernels rely on: AND + ANDNOT against
// the same mask partition the mask's population exactly.
TEST(SimdKernels, AndPlusAndnotPartitionsMask) {
  hdc::util::Rng rng(63);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> col = random_words(words, rng);
    const std::vector<std::uint64_t> mask = random_words(words, rng);
    for (const Tier t : hdc::simd::supported_tiers()) {
      const auto& k = hdc::simd::kernels(t);
      EXPECT_EQ(k.and_popcount(col.data(), mask.data(), words) +
                    k.andnot_popcount(col.data(), mask.data(), words),
                k.popcount(mask.data(), words))
          << "tier=" << hdc::simd::tier_name(t) << " words=" << words;
    }
  }
}

// sketch_scan is the batched form of per-row hamming over a contiguous
// block; every tier must match a naive per-row scalar loop bit-exactly,
// including ragged block tails (n not a multiple of any rows-per-vector
// grouping) and row widths off every vector boundary.
TEST(SimdKernels, SketchScanMatchesPerRowNaiveAcrossTiers) {
  hdc::util::Rng rng(4099);
  const std::size_t kRowWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16, 33};
  const std::size_t kBlockRows[] = {1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 65, 200};
  for (const std::size_t words : kRowWidths) {
    for (const std::size_t n : kBlockRows) {
      const std::vector<std::uint64_t> query = random_words(words, rng);
      const std::vector<std::uint64_t> block = random_words(n * words, rng);
      std::vector<std::uint32_t> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t d = 0;
        for (std::size_t w = 0; w < words; ++w) {
          d += static_cast<std::uint32_t>(
              std::popcount(query[w] ^ block[i * words + w]));
        }
        expected[i] = d;
      }
      for (const Tier t : hdc::simd::supported_tiers()) {
        std::vector<std::uint32_t> out(n, 0xdeadbeefu);
        hdc::simd::kernels(t).sketch_scan(query.data(), block.data(), n, words,
                                          out.data());
        EXPECT_EQ(out, expected)
            << "tier=" << hdc::simd::tier_name(t) << " words=" << words
            << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, SketchScanExtremes) {
  const std::vector<std::uint64_t> zeros(4, 0ULL);
  const std::vector<std::uint64_t> block(5 * 4, ~0ULL);
  for (const Tier t : hdc::simd::supported_tiers()) {
    std::vector<std::uint32_t> out(5, 0u);
    hdc::simd::kernels(t).sketch_scan(zeros.data(), block.data(), 5, 4,
                                      out.data());
    for (const std::uint32_t d : out) EXPECT_EQ(d, 4u * 64u);
    hdc::simd::kernels(t).sketch_scan(block.data(), block.data(), 5, 4,
                                      out.data());
    for (const std::uint32_t d : out) EXPECT_EQ(d, 0u);
  }
}

TEST(SimdKernels, PopcountMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(7);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    const std::size_t expected = naive_popcount(a);
    for (const Tier t : hdc::simd::supported_tiers()) {
      EXPECT_EQ(hdc::simd::kernels(t).popcount(a.data(), words), expected)
          << "tier=" << hdc::simd::tier_name(t) << " words=" << words;
    }
  }
}

TEST(SimdKernels, MajorityMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(42);
  // Odd and even row counts (ties only exist for even n), crossing the
  // plane-count boundaries of the bit-sliced counters.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u}) {
    for (const std::size_t words : {1u, 4u, 7u, 39u, 157u}) {
      std::vector<std::vector<std::uint64_t>> rows;
      std::vector<const std::uint64_t*> row_ptrs;
      for (std::size_t r = 0; r < n; ++r) {
        rows.push_back(random_words(words, rng));
      }
      for (const auto& r : rows) row_ptrs.push_back(r.data());

      for (const bool tie_to_one : {false, true}) {
        // Naive per-bit reference.
        std::vector<std::uint64_t> expected(words, 0ULL);
        for (std::size_t bit = 0; bit < words * 64; ++bit) {
          std::size_t count = 0;
          for (const auto& r : rows) count += (r[bit / 64] >> (bit % 64)) & 1ULL;
          const bool set = 2 * count > n || (tie_to_one && 2 * count == n);
          if (set) expected[bit / 64] |= 1ULL << (bit % 64);
        }
        for (const Tier t : hdc::simd::supported_tiers()) {
          std::vector<std::uint64_t> out(words, 0xdeadbeefULL);
          hdc::simd::kernels(t).majority(row_ptrs.data(), n, words, out.data(),
                                         tie_to_one);
          EXPECT_EQ(out, expected)
              << "tier=" << hdc::simd::tier_name(t) << " n=" << n
              << " words=" << words << " tie=" << tie_to_one;
        }
      }
    }
  }
}

// The select kernels are floating point: every tier must reproduce the
// naive multiply-then-add loops below to the last bit (memcmp, so -0.0 and
// NaN payloads count too). A fused multiply-add anywhere in a tier changes
// low bits and fails these.
const std::size_t kSelectCols[] = {1, 7, 8, 63, 64, 65, 130, 10000};

struct SelectCase {
  std::size_t words = 0;
  std::vector<std::uint64_t> rows;  // kSelectMaxRows rows, padding bits zero
  std::vector<double> z0, z1, w;
};

SelectCase random_select_case(std::size_t cols, hdc::util::Rng& rng) {
  SelectCase c;
  c.words = (cols + 63) / 64;
  c.rows = random_words(hdc::simd::kSelectMaxRows * c.words, rng);
  if (cols % 64 != 0) {
    for (std::size_t k = 0; k < hdc::simd::kSelectMaxRows; ++k) {
      c.rows[k * c.words + c.words - 1] &= (1ULL << (cols % 64)) - 1;
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    c.z0.push_back(rng.uniform(-2.0, 2.0));
    c.z1.push_back(rng.uniform(-2.0, 2.0));
    c.w.push_back(rng.uniform(-1.0, 1.0));
  }
  return c;
}

double naive_select(const SelectCase& c, std::size_t k, std::size_t j) {
  const bool bit = (c.rows[k * c.words + j / 64] >> (j % 64)) & 1u;
  return bit ? c.z1[j] : c.z0[j];
}

TEST(SimdKernels, SelectDotMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(5151);
  for (const std::size_t cols : kSelectCols) {
    const SelectCase c = random_select_case(cols, rng);
    const double bias = rng.uniform(-1.0, 1.0);
    for (std::size_t nrows = 1; nrows <= hdc::simd::kSelectMaxRows; ++nrows) {
      std::vector<double> expected(nrows);
      for (std::size_t k = 0; k < nrows; ++k) {
        double acc = bias;
        for (std::size_t j = 0; j < cols; ++j) {
          const double term = c.w[j] * naive_select(c, k, j);
          acc = acc + term;
        }
        expected[k] = acc;
      }
      for (const Tier t : hdc::simd::supported_tiers()) {
        std::vector<double> out(nrows, -1.0);
        hdc::simd::kernels(t).select_dot(c.rows.data(), nrows, cols, c.z0.data(),
                                         c.z1.data(), c.w.data(), bias, out.data());
        EXPECT_EQ(std::memcmp(out.data(), expected.data(), nrows * sizeof(double)), 0)
            << "tier=" << hdc::simd::tier_name(t) << " cols=" << cols
            << " nrows=" << nrows;
      }
    }
  }
}

TEST(SimdKernels, SelectAxpyMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(6262);
  for (const std::size_t cols : kSelectCols) {
    const SelectCase c = random_select_case(cols, rng);
    std::vector<double> coef(hdc::simd::kSelectMaxRows);
    for (double& v : coef) v = rng.uniform(-1.0, 1.0);
    std::vector<double> start(cols);
    for (double& v : start) v = rng.uniform(-3.0, 3.0);
    for (std::size_t nrows = 1; nrows <= hdc::simd::kSelectMaxRows; ++nrows) {
      std::vector<double> expected = start;
      for (std::size_t k = 0; k < nrows; ++k) {
        for (std::size_t j = 0; j < cols; ++j) {
          const double term = coef[k] * naive_select(c, k, j);
          expected[j] = expected[j] + term;
        }
      }
      for (const Tier t : hdc::simd::supported_tiers()) {
        std::vector<double> grad = start;
        hdc::simd::kernels(t).select_axpy(c.rows.data(), nrows, cols, c.z0.data(),
                                          c.z1.data(), coef.data(), grad.data());
        EXPECT_EQ(std::memcmp(grad.data(), expected.data(), cols * sizeof(double)), 0)
            << "tier=" << hdc::simd::tier_name(t) << " cols=" << cols
            << " nrows=" << nrows;
      }
    }
  }
}

// zero_bit_sums on a scattered, ascending row selection from a 320-row
// block: every tier must reproduce a serial loop that visits each column's
// zero-bit rows in selection order. Start sums are random and a/b are
// signed, so a lane that adds when it should keep (or drops a term) shows
// up in memcmp.
TEST(SimdKernels, ZeroBitSumsMatchesNaiveAcrossTiers) {
  hdc::util::Rng rng(7373);
  constexpr std::size_t kBlockRows = 320;
  for (const std::size_t cols : kSelectCols) {
    // Row words wider than the columns, with garbage padding bits, so a
    // kernel that reads past `cols` or ignores words_per_row fails.
    const std::size_t words_per_row = (cols + 63) / 64 + 1;
    const std::vector<std::uint64_t> block =
        random_words(kBlockRows * words_per_row, rng);
    for (const std::size_t nrows : {0u, 1u, 17u, 39u, 40u, 41u, 300u}) {
      std::vector<std::uint32_t> rows;
      for (std::uint32_t r = 0; rows.size() < nrows; ++r) {
        if (kBlockRows - r == nrows - rows.size() ||
            rng.bernoulli(static_cast<double>(nrows) / kBlockRows)) {
          rows.push_back(r);
        }
      }
      std::vector<double> a(nrows);
      std::vector<double> b(nrows);
      for (double& v : a) v = rng.uniform(-1.0, 1.0);
      for (double& v : b) v = rng.uniform(-1.0, 1.0);
      std::vector<double> start_a(cols);
      std::vector<double> start_b(cols);
      for (double& v : start_a) v = rng.uniform(-3.0, 3.0);
      for (double& v : start_b) v = rng.uniform(-3.0, 3.0);
      std::vector<double> expected_a = start_a;
      std::vector<double> expected_b = start_b;
      for (std::size_t k = 0; k < nrows; ++k) {
        const std::uint64_t* row = block.data() + rows[k] * words_per_row;
        for (std::size_t j = 0; j < cols; ++j) {
          if (((row[j / 64] >> (j % 64)) & 1u) != 0) continue;
          expected_a[j] = expected_a[j] + a[k];
          expected_b[j] = expected_b[j] + b[k];
        }
      }
      for (const Tier t : hdc::simd::supported_tiers()) {
        std::vector<double> sum_a = start_a;
        std::vector<double> sum_b = start_b;
        hdc::simd::kernels(t).zero_bit_sums(block.data(), words_per_row,
                                            rows.data(), nrows, cols, a.data(),
                                            b.data(), sum_a.data(), sum_b.data());
        EXPECT_EQ(std::memcmp(sum_a.data(), expected_a.data(), cols * sizeof(double)), 0)
            << "tier=" << hdc::simd::tier_name(t) << " cols=" << cols
            << " nrows=" << nrows;
        EXPECT_EQ(std::memcmp(sum_b.data(), expected_b.data(), cols * sizeof(double)), 0)
            << "tier=" << hdc::simd::tier_name(t) << " cols=" << cols
            << " nrows=" << nrows;
      }
    }
  }
}

// End-to-end dispatch-tier invariance: the full encode + LOOCV pipeline must
// produce bit-identical hypervectors and confusion matrices on every tier —
// the dispatch-layer extension of the thread-count determinism gate.
TEST(SimdPipeline, EncodeAndLoocvIdenticalAcrossTiers) {
  TierGuard guard;
  hdc::data::PimaConfig config;
  config.n_negative = 64;  // keep the per-tier LOOCV cheap
  config.n_positive = 32;
  config.seed = 11;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(config));

  hdc::core::ExtractorConfig extractor_config;
  extractor_config.dimensions = 10000;
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(ds);

  std::vector<hdc::hv::BitVector> reference;
  hdc::eval::BinaryMetrics reference_metrics;
  bool have_reference = false;
  for (const Tier t : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(t);
    const std::vector<hdc::hv::BitVector> vectors = extractor.transform(ds);
    const hdc::eval::BinaryMetrics metrics =
        hdc::eval::hamming_loocv(vectors, ds.labels()).metrics;
    if (!have_reference) {
      reference = vectors;
      reference_metrics = metrics;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(vectors, reference) << "tier=" << hdc::simd::tier_name(t);
    EXPECT_EQ(metrics.confusion.tp, reference_metrics.confusion.tp);
    EXPECT_EQ(metrics.confusion.tn, reference_metrics.confusion.tn);
    EXPECT_EQ(metrics.confusion.fp, reference_metrics.confusion.fp);
    EXPECT_EQ(metrics.confusion.fn, reference_metrics.confusion.fn);
  }
}

// BitVector's own popcount/hamming route through the dispatch table; check
// them against bit-by-bit counting on a non-word-multiple size.
TEST(SimdPipeline, BitVectorOpsMatchBitLoopOnEveryTier) {
  TierGuard guard;
  hdc::util::Rng rng(99);
  const std::size_t bits = 10000;
  const hdc::hv::BitVector a = hdc::hv::BitVector::random(bits, rng);
  const hdc::hv::BitVector b = hdc::hv::BitVector::random(bits, rng);
  std::size_t pop = 0, ham = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    pop += a.get(i) ? 1 : 0;
    ham += a.get(i) != b.get(i) ? 1 : 0;
  }
  for (const Tier t : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(t);
    EXPECT_EQ(a.popcount(), pop) << "tier=" << hdc::simd::tier_name(t);
    EXPECT_EQ(a.hamming(b), ham) << "tier=" << hdc::simd::tier_name(t);
  }
}

}  // namespace
