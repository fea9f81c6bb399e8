// Property tests for the batch engine: the blocked/parallel Hamming search
// kernels must agree bit-for-bit with the naive BitVector::hamming loop for
// random sizes, seeds, tile shapes, and thread counts; plus the operator
// algebra the kernels rely on (rotation composition, bind isometry, bundling
// density envelope) and BatchEncoder == row-at-a-time RecordEncoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hv/batch_encoder.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/bitvector.hpp"
#include "hv/encoders.hpp"
#include "hv/ops.hpp"
#include "hv/page_allocator.hpp"
#include "hv/search.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace hdc::hv {
namespace {

struct SearchCase {
  std::size_t dim;
  std::size_t queries;
  std::size_t database;
  std::uint64_t seed;
};

std::vector<BitVector> random_vectors(std::size_t n, std::size_t dim, util::Rng& rng) {
  std::vector<BitVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(BitVector::random(dim, rng));
  return out;
}

/// Reference: per-pair BitVector::hamming, ties to lowest index.
std::vector<Neighbor> naive_nearest(const std::vector<BitVector>& queries,
                                    const std::vector<BitVector>& database,
                                    bool exclude_same_index) {
  std::vector<Neighbor> out;
  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    Neighbor best{database.size(), queries[q].size() + 1};
    for (std::size_t j = 0; j < database.size(); ++j) {
      if (exclude_same_index && j == q) continue;
      const std::size_t d = queries[q].hamming(database[j]);
      if (d < best.distance) best = Neighbor{j, d};
    }
    out.push_back(best);
  }
  return out;
}

std::vector<std::vector<Neighbor>> naive_top_k(const std::vector<BitVector>& queries,
                                               const std::vector<BitVector>& database,
                                               std::size_t k) {
  std::vector<std::vector<Neighbor>> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<Neighbor> all;
    for (std::size_t j = 0; j < database.size(); ++j) {
      all.push_back(Neighbor{j, queries[q].hamming(database[j])});
    }
    std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
      return a.distance != b.distance ? a.distance < b.distance : a.index < b.index;
    });
    all.resize(std::min(k, all.size()));
    out[q] = std::move(all);
  }
  return out;
}

class SearchPropertySweep : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchPropertySweep, PackRoundTrips) {
  util::Rng rng(GetParam().seed);
  const auto vectors = random_vectors(GetParam().database, GetParam().dim, rng);
  const PackedHVs packed = PackedHVs::pack(vectors);
  ASSERT_EQ(packed.rows(), vectors.size());
  ASSERT_EQ(packed.bits(), GetParam().dim);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(packed.unpack_row(i), vectors[i]) << i;
  }
}

TEST_P(SearchPropertySweep, NearestMatchesNaiveLoop) {
  util::Rng rng(GetParam().seed + 1);
  const auto queries = random_vectors(GetParam().queries, GetParam().dim, rng);
  const auto database = random_vectors(GetParam().database, GetParam().dim, rng);
  const auto expected = naive_nearest(queries, database, false);
  EXPECT_EQ(nearest_neighbors(queries, database), expected);
}

TEST_P(SearchPropertySweep, LeaveOneOutMatchesNaiveLoop) {
  if (GetParam().database < 2) GTEST_SKIP();
  util::Rng rng(GetParam().seed + 2);
  const auto vectors = random_vectors(GetParam().database, GetParam().dim, rng);
  const auto expected = naive_nearest(vectors, vectors, true);
  EXPECT_EQ(loo_nearest_neighbors(vectors), expected);
}

TEST_P(SearchPropertySweep, TileShapeDoesNotChangeResults) {
  util::Rng rng(GetParam().seed + 3);
  const auto queries = random_vectors(GetParam().queries, GetParam().dim, rng);
  const auto database = random_vectors(GetParam().database, GetParam().dim, rng);
  const PackedHVs pq = PackedHVs::pack(queries);
  const PackedHVs pdb = PackedHVs::pack(database);
  const auto expected = nearest_neighbors(pq, pdb);
  const std::pair<std::size_t, std::size_t> tiles[] = {{1, 1}, {1, 3}, {7, 2},
                                                       {1000, 1000}};
  for (const auto& [tq, tdb] : tiles) {
    SearchOptions options;
    options.tile_queries = tq;
    options.tile_database = tdb;
    EXPECT_EQ(nearest_neighbors(pq, pdb, options), expected) << tq << "x" << tdb;
  }
}

TEST_P(SearchPropertySweep, ThreadCountDoesNotChangeResults) {
  util::Rng rng(GetParam().seed + 4);
  const auto vectors = random_vectors(std::max<std::size_t>(GetParam().database, 2),
                                      GetParam().dim, rng);
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  SearchOptions serial;
  serial.pool = &one;
  SearchOptions wide;
  wide.pool = &four;
  EXPECT_EQ(loo_nearest_neighbors(vectors, serial),
            loo_nearest_neighbors(vectors, wide));
}

TEST_P(SearchPropertySweep, TopKMatchesNaiveSort) {
  util::Rng rng(GetParam().seed + 5);
  const auto queries = random_vectors(GetParam().queries, GetParam().dim, rng);
  const auto database = random_vectors(GetParam().database, GetParam().dim, rng);
  const PackedHVs pq = PackedHVs::pack(queries);
  const PackedHVs pdb = PackedHVs::pack(database);
  for (const std::size_t k : {1u, 3u, 100u}) {
    EXPECT_EQ(top_k_neighbors(pq, pdb, k), naive_top_k(queries, database, k)) << k;
  }
}

TEST_P(SearchPropertySweep, DistanceMatrixMatchesNaiveLoop) {
  util::Rng rng(GetParam().seed + 6);
  const auto queries = random_vectors(GetParam().queries, GetParam().dim, rng);
  const auto database = random_vectors(GetParam().database, GetParam().dim, rng);
  // With k = every row, top_k_neighbors reports each query's distance to
  // every database row once: the full distance matrix.
  const auto all = top_k_neighbors(PackedHVs::pack(queries), PackedHVs::pack(database),
                                   database.size());
  ASSERT_EQ(all.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(all[q].size(), database.size());
    for (const Neighbor& n : all[q]) {
      EXPECT_EQ(n.distance, queries[q].hamming(database[n.index]));
    }
  }
}

TEST_P(SearchPropertySweep, RotationComposes) {
  // rotated(a).rotated(b) == rotated((a + b) mod n).
  util::Rng rng(GetParam().seed + 7);
  const BitVector v = BitVector::random(GetParam().dim, rng);
  const std::size_t n = GetParam().dim;
  for (const std::size_t a : {std::size_t{1}, std::size_t{63}, n / 2, n - 1}) {
    for (const std::size_t b : {std::size_t{0}, std::size_t{7}, n - 1}) {
      EXPECT_EQ(v.rotated(a).rotated(b), v.rotated((a + b) % n)) << a << "+" << b;
    }
  }
}

TEST_P(SearchPropertySweep, BindPreservesDistance) {
  // d(a ^ c, b ^ c) == d(a, b), also through the packed kernel.
  util::Rng rng(GetParam().seed + 8);
  const BitVector a = BitVector::random(GetParam().dim, rng);
  const BitVector b = BitVector::random(GetParam().dim, rng);
  const BitVector c = BitVector::random(GetParam().dim, rng);
  EXPECT_EQ((a ^ c).hamming(b ^ c), a.hamming(b));
  const std::vector<BitVector> bound = {a ^ c, b ^ c};
  SearchOptions loo;
  loo.exclude_same_index = true;
  const auto nearest = nearest_neighbors(PackedHVs::pack(bound), PackedHVs::pack(bound), loo);
  EXPECT_EQ(nearest[0].distance, a.hamming(b));
}

TEST(SearchValidation, RejectsBadInputs) {
  util::Rng rng(1);
  const auto a = random_vectors(3, 128, rng);
  const auto b = random_vectors(3, 256, rng);
  EXPECT_THROW(nearest_neighbors(a, b), std::invalid_argument);
  EXPECT_THROW(nearest_neighbors(a, {}), std::invalid_argument);
  SearchOptions loo;
  loo.exclude_same_index = true;
  const PackedHVs pa = PackedHVs::pack(a);
  const PackedHVs pb4 = PackedHVs::pack(random_vectors(4, 128, rng));
  EXPECT_THROW(nearest_neighbors(pa, pb4, loo), std::invalid_argument);
  EXPECT_THROW(top_k_neighbors(pa, pa, 0), std::invalid_argument);
}

/// Bitwise majority density of m random vectors concentrates around the
/// analytic tie-policy-dependent expectation: 1/2 for odd m, and for even m
/// 1/2 +/- C(m, m/2) / 2^(m+1) depending on where ties land.
TEST(BundlingDensity, StaysInMajorityVoteEnvelope) {
  const std::size_t dim = 10000;
  util::Rng rng(99);
  for (const std::size_t m : {3u, 4u, 5u, 8u, 9u, 16u}) {
    const auto inputs = random_vectors(m, dim, rng);
    double tie_mass = 0.0;  // P[Binomial(m, 1/2) == m/2], even m only
    if (m % 2 == 0) {
      double log_choose = 0.0;
      for (std::size_t i = 1; i <= m / 2; ++i) {
        log_choose += std::log(static_cast<double>(m / 2 + i)) -
                      std::log(static_cast<double>(i));
      }
      tie_mass = std::exp(log_choose - static_cast<double>(m) * std::log(2.0));
    }
    for (const TiePolicy tie : {TiePolicy::kOne, TiePolicy::kZero}) {
      const double expected =
          0.5 + (tie == TiePolicy::kOne ? 0.5 : -0.5) * tie_mass;
      const double tolerance =
          6.0 * std::sqrt(expected * (1.0 - expected) / static_cast<double>(dim));
      const double density =
          static_cast<double>(majority(inputs, tie).popcount()) / static_cast<double>(dim);
      EXPECT_NEAR(density, expected, tolerance)
          << "m=" << m << " tie=" << static_cast<int>(tie);
    }
  }
}

TEST(BatchEncoderProperty, MatchesRowAtATimeEncoding) {
  const std::size_t dim = 2000;
  RecordEncoder encoder(dim);
  encoder.add_feature(std::make_unique<LevelEncoder>(dim, 0.0, 1.0, 11));
  encoder.add_feature(std::make_unique<LevelEncoder>(dim, -5.0, 5.0, 12));
  encoder.add_feature(std::make_unique<BinaryEncoder>(dim, 13));
  encoder.add_feature(std::make_unique<CategoricalEncoder>(dim, 14));

  util::Rng rng(7);
  const std::size_t rows = 300;
  std::vector<double> values;
  values.reserve(rows * 4);
  for (std::size_t i = 0; i < rows; ++i) {
    values.push_back(rng.uniform());
    values.push_back(rng.uniform(-5.0, 5.0));
    values.push_back(rng.bernoulli(0.5) ? 1.0 : 0.0);
    values.push_back(static_cast<double>(rng.below(6)));
  }

  const BatchEncoder batch(encoder);
  const std::vector<BitVector> encoded = batch.encode_matrix(values, 4);
  ASSERT_EQ(encoded.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_EQ(encoded[i],
              encoder.encode(std::span<const double>(values).subspan(i * 4, 4)))
        << i;
  }

  // Packed output and explicit pools of different widths agree bit-for-bit.
  const auto row_of = [&](std::size_t i, std::vector<double>&) {
    return std::span<const double>(values).subspan(i * 4, 4);
  };
  const PackedHVs packed = batch.encode_packed(rows, row_of);
  for (std::size_t i = 0; i < rows; ++i) EXPECT_EQ(packed.unpack_row(i), encoded[i]);

  parallel::ThreadPool one(1);
  parallel::ThreadPool three(3);
  const BatchEncoder serial(encoder, {&one});
  const BatchEncoder wide(encoder, {&three});
  EXPECT_EQ(serial.encode_rows(rows, row_of), wide.encode_rows(rows, row_of));
}

/// Word i of a recognisable fill pattern.
std::uint64_t pattern_word(std::size_t i) {
  return (i + 1) * 0x9E3779B97F4A7C15ULL;
}

bool holds_pattern(const PackedWords& v, std::size_t n) {
  if (v.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] != pattern_word(i)) return false;
  }
  return true;
}

// PageAllocator maps blocks of at least kDirectMapBytes and leaves smaller
// ones to operator new. Contents must survive every copy, move and
// reallocation that crosses that edge in either direction.
TEST(PageAllocator, ContentsSurviveCopyMoveAndResizeAcrossMapEdge) {
  const std::size_t edge = kDirectMapBytes / sizeof(std::uint64_t);
  for (const std::size_t n : {edge - 1, edge, edge + 1}) {
    PackedWords v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = pattern_word(i);
    const PackedWords copy = v;
    EXPECT_TRUE(holds_pattern(copy, n)) << n;
    PackedWords moved = std::move(v);
    EXPECT_TRUE(holds_pattern(moved, n)) << n;
    PackedWords assigned(3, 7);
    assigned = moved;
    EXPECT_TRUE(holds_pattern(assigned, n)) << n;
  }

  // Grow from an operator-new block into a mapped one: the old words move
  // over and the new ones are zero.
  const std::size_t small = edge - 100;
  PackedWords grow(small);
  for (std::size_t i = 0; i < small; ++i) grow[i] = pattern_word(i);
  grow.resize(edge + 100);
  EXPECT_TRUE(holds_pattern(grow, small));
  for (std::size_t i = small; i < grow.size(); ++i) ASSERT_EQ(grow[i], 0u) << i;

  // Shrink from a mapped block back into an operator-new one.
  for (std::size_t i = 0; i < grow.size(); ++i) grow[i] = pattern_word(i);
  grow.resize(small);
  grow.shrink_to_fit();
  EXPECT_TRUE(holds_pattern(grow, small));

  // The packed containers on both sides of the edge: 10,000-bit rows are
  // 157 words, so 100 rows sit below it and 110 rows above it.
  util::Rng rng(77);
  for (const std::size_t rows : {100u, 110u}) {
    const std::vector<BitVector> vectors = random_vectors(rows, 10000, rng);
    PackedHVs packed = PackedHVs::pack(vectors);
    const PackedHVs copy = packed;
    const BitMatrix matrix = BitMatrix::from_rows(std::move(packed));
    const BitMatrix matrix_copy = matrix;
    for (std::size_t i = 0; i < rows; i += 9) {
      EXPECT_EQ(copy.unpack_row(i), vectors[i]) << rows << " row " << i;
      for (std::size_t j = 0; j < 10000; j += 997) {
        EXPECT_EQ(matrix_copy.get(i, j), vectors[i].get(j)) << rows << " " << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, SearchPropertySweep,
    ::testing::Values(SearchCase{64, 1, 1, 1}, SearchCase{100, 3, 17, 2},
                      SearchCase{1000, 10, 64, 3}, SearchCase{4096, 33, 129, 4},
                      SearchCase{10000, 40, 300, 5}, SearchCase{128, 257, 11, 6},
                      SearchCase{20000, 5, 40, 7}));

}  // namespace
}  // namespace hdc::hv
