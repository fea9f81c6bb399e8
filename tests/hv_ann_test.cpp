// Property tests for the hv::ann coarse-filter / exact-rerank index: the
// exact-fallback byte-identity contract, full-probe equality with the exact
// kernels, seeded rebuild bit-identity, a golden build hash on every SIMD
// tier and pool size, serde round-trips, corruption rejection, fingerprint
// checks, and concurrent const queries (the ctest `ann` label is part of
// the TSan set).
#include "hv/ann.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hv/bit_matrix.hpp"
#include "hv/bitvector.hpp"
#include "hv/search.hpp"
#include "hv/sharded_bits.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace {

using hdc::hv::BitVector;
using hdc::hv::Neighbor;
using hdc::hv::PackedHVs;
namespace ann = hdc::hv::ann;

PackedHVs random_rows(std::size_t rows, std::size_t bits, std::uint64_t seed) {
  hdc::util::Rng rng(seed);
  std::vector<BitVector> vectors;
  vectors.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    vectors.push_back(BitVector::random(bits, rng));
  }
  return PackedHVs::pack(vectors);
}

/// Clustered cohort: `centers` random prototypes, each row a center with a
/// small fraction of bits flipped. Nearest neighbours are same-cluster, which
/// is the structure encoded patient vectors actually have.
PackedHVs clustered_rows(std::size_t rows, std::size_t bits,
                         std::size_t centers, double flip,
                         std::uint64_t seed) {
  hdc::util::Rng rng(seed);
  std::vector<BitVector> prototypes;
  prototypes.reserve(centers);
  for (std::size_t c = 0; c < centers; ++c) {
    prototypes.push_back(BitVector::random(bits, rng));
  }
  std::vector<BitVector> vectors;
  vectors.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    BitVector v = prototypes[i % centers];
    for (std::size_t b = 0; b < bits; ++b) {
      if (rng.bernoulli(flip)) v.set(b, !v.get(b));
    }
    vectors.push_back(std::move(v));
  }
  return PackedHVs::pack(vectors);
}

std::string serialized(const ann::Index& index) {
  std::ostringstream out;
  index.save(out);
  return out.str();
}

/// Split a packed database into <= shard_rows row shards, the input shape
/// build_sharded consumes.
hdc::hv::ShardedBitMatrix shard_packed(const PackedHVs& db,
                                       std::size_t shard_rows) {
  hdc::hv::ShardedBitMatrix out;
  for (std::size_t b = 0; b < db.rows(); b += shard_rows) {
    const std::size_t e = std::min(db.rows(), b + shard_rows);
    PackedHVs slice(db.bits(), e - b);
    for (std::size_t i = b; i < e; ++i) {
      std::copy_n(db.row(i), db.words_per_row(), slice.row(i - b));
    }
    out.append_shard(hdc::hv::BitMatrix::from_rows(std::move(slice)));
  }
  return out;
}

TEST(HvAnnTest, ExactFallbackIsByteIdenticalToKernels) {
  const PackedHVs db = random_rows(200, 512, 1);
  const PackedHVs queries = random_rows(33, 512, 2);
  const ann::Index index = ann::Index::build(db);

  ann::SearchOptions options;
  options.exact = true;
  const std::vector<Neighbor> got = index.nearest(queries, db, options);
  const std::vector<Neighbor> want = hdc::hv::nearest_neighbors(queries, db);
  EXPECT_EQ(got, want);

  const auto got_k = index.top_k(queries, db, 5, options);
  const auto want_k = hdc::hv::top_k_neighbors(queries, db, 5);
  EXPECT_EQ(got_k, want_k);
}

TEST(HvAnnTest, FullProbeFullRerankMatchesExact) {
  const PackedHVs db = random_rows(300, 256, 3);
  const PackedHVs queries = random_rows(40, 256, 4);
  ann::Config config;
  config.rerank_fraction = 1.0;
  const ann::Index index = ann::Index::build(db, config);

  ann::SearchOptions options;
  options.nprobe = index.cells();  // visit everything
  const std::vector<Neighbor> got = index.nearest(queries, db, options);
  const std::vector<Neighbor> want = hdc::hv::nearest_neighbors(queries, db);
  EXPECT_EQ(got, want);

  const auto got_k = index.top_k(queries, db, 7, options);
  const auto want_k = hdc::hv::top_k_neighbors(queries, db, 7);
  EXPECT_EQ(got_k, want_k);
}

TEST(HvAnnTest, FullProbeLeaveOneOutMatchesExact) {
  const PackedHVs db = random_rows(150, 256, 5);
  ann::Config config;
  config.rerank_fraction = 1.0;
  const ann::Index index = ann::Index::build(db, config);

  ann::SearchOptions options;
  options.nprobe = index.cells();
  options.exclude_same_index = true;
  const std::vector<Neighbor> got = index.nearest(db, db, options);

  hdc::hv::SearchOptions exact_options;
  exact_options.exclude_same_index = true;
  const std::vector<Neighbor> want =
      hdc::hv::nearest_neighbors(db, db, exact_options);
  EXPECT_EQ(got, want);
}

TEST(HvAnnTest, ResultsAreSubsetOfRowsWithExactDistances) {
  const PackedHVs db = clustered_rows(400, 512, 16, 0.05, 6);
  const PackedHVs queries = clustered_rows(25, 512, 16, 0.08, 7);
  const ann::Index index = ann::Index::build(db);

  const auto lists = index.top_k(queries, db, 4);
  const auto hamming = hdc::simd::active().hamming;
  ASSERT_EQ(lists.size(), queries.rows());
  for (std::size_t q = 0; q < lists.size(); ++q) {
    ASSERT_FALSE(lists[q].empty());
    for (std::size_t i = 0; i < lists[q].size(); ++i) {
      const Neighbor& n = lists[q][i];
      ASSERT_LT(n.index, db.rows());
      // Every returned distance is exact (rerank stage), never estimated.
      EXPECT_EQ(n.distance, hamming(queries.row(q), db.row(n.index),
                                    db.words_per_row()));
      if (i > 0) {
        const Neighbor& prev = lists[q][i - 1];
        EXPECT_TRUE(prev.distance < n.distance ||
                    (prev.distance == n.distance && prev.index < n.index));
      }
    }
  }
}

TEST(HvAnnTest, HighRecallOnClusteredData) {
  const PackedHVs db = clustered_rows(2000, 1024, 32, 0.05, 8);
  const ann::Index index = ann::Index::build(db);

  ann::SearchOptions options;
  options.exclude_same_index = true;
  ann::SearchStats stats;
  const std::vector<Neighbor> got = index.nearest(db, db, options, &stats);

  hdc::hv::SearchOptions exact_options;
  exact_options.exclude_same_index = true;
  const std::vector<Neighbor> want =
      hdc::hv::nearest_neighbors(db, db, exact_options);

  std::size_t hits = 0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    // Tie-tolerant recall: a hit is any neighbour at the true best distance.
    if (got[q].distance == want[q].distance) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(got.size()), 0.99);
  EXPECT_EQ(stats.queries, db.rows());
  EXPECT_GT(stats.candidates, 0u);
  // The point of the index: visit far fewer full-width words than the exact
  // O(n) sweep (n * words per query).
  const std::uint64_t exact_word_ops =
      static_cast<std::uint64_t>(db.rows()) * db.rows() * db.words_per_row();
  EXPECT_LT(stats.word_ops, exact_word_ops / 2);
}

TEST(HvAnnTest, SeededRebuildIsBitIdentical) {
  const PackedHVs db = clustered_rows(500, 512, 10, 0.06, 9);
  const ann::Index a = ann::Index::build(db);
  const ann::Index b = ann::Index::build(db);
  EXPECT_EQ(a, b);
  EXPECT_EQ(serialized(a), serialized(b));

  ann::Config other;
  other.seed = 99;
  const ann::Index c = ann::Index::build(db, other);
  EXPECT_NE(serialized(a), serialized(c));
}

// The PR 9 invariance contract extended to the ANN builder: a streamed
// build must be byte-identical (serialized form) to the in-memory build at
// any shard geometry, including a ragged final shard.
TEST(HvAnnTest, ShardedBuildIsByteIdenticalAcrossShardCounts) {
  const PackedHVs db = clustered_rows(500, 512, 10, 0.06, 21);
  const ann::Index reference = ann::Index::build(db);
  const std::string reference_bytes = serialized(reference);

  for (const std::size_t shard_rows : {500u, 125u, 65u}) {
    const hdc::hv::ShardedBitMatrix sharded = shard_packed(db, shard_rows);
    const hdc::hv::ShardedBitMatrixSource source(sharded);
    ann::BuildStats stats;
    const ann::Index streamed =
        ann::Index::build_sharded(source, {}, nullptr, &stats);
    EXPECT_EQ(streamed, reference) << "shard_rows=" << shard_rows;
    EXPECT_EQ(serialized(streamed), reference_bytes)
        << "shard_rows=" << shard_rows;
    EXPECT_NO_THROW(streamed.check_database(db));
    EXPECT_EQ(stats.shards, sharded.num_shards());
    EXPECT_EQ(stats.index_bytes, streamed.storage_bytes());
    EXPECT_GE(stats.bytes_peak, stats.shard_bytes_max);
    EXPECT_GT(stats.shard_bytes_max, 0u);
  }
}

// The Lloyd update runs over the pool on whichever SIMD tier is active, and
// the saved index must depend on neither. The golden FNV-1a of the save()
// bytes was captured from the serial per-bit counting update (centroid bit
// set where 2 * count >= cell size), so it also pins every later update to
// that rule. Row 30 duplicates row 0, the first two initial centroids
// (cells = 50 puts them at rows 0 and 30), so cell 1 starts empty and must
// keep its previous centroid; 1000 bits leave a ragged last word, and the
// 700-row Lloyd cap makes the sample strided.
TEST(HvAnnTest, BuildIsByteIdenticalAcrossTiersAndPools) {
  constexpr std::uint64_t kGoldenFnv = 0x802077ff18abffafULL;
  PackedHVs db = clustered_rows(1500, 1000, 24, 0.06, 41);
  std::copy_n(db.row(0), db.words_per_row(), db.row(30));
  ann::Config config;
  config.cells = 50;
  config.lloyd_sample = 700;
  const hdc::hv::ShardedBitMatrix halves = shard_packed(db, 750);
  const hdc::hv::ShardedBitMatrixSource source(halves);

  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(tier);
    for (const std::size_t workers : {1u, 4u}) {
      hdc::parallel::ThreadPool pool(workers);
      const std::string at = std::string(hdc::simd::tier_name(tier)) + " x" +
                             std::to_string(workers);
      EXPECT_EQ(hdc::util::serde::fnv1a64(
                    serialized(ann::Index::build(db, config, &pool))),
                kGoldenFnv)
          << at;
      EXPECT_EQ(hdc::util::serde::fnv1a64(serialized(
                    ann::Index::build_sharded(source, config, &pool))),
                kGoldenFnv)
          << at << ", 2 shards";
    }
  }
  hdc::simd::reset_tier();
}

TEST(HvAnnTest, ShardedBuildStatsReportedForInMemoryBuildToo) {
  const PackedHVs db = random_rows(200, 256, 77);
  ann::BuildStats stats;
  const ann::Index index = ann::Index::build(db, {}, nullptr, &stats);
  EXPECT_EQ(stats.shards, 1u);
  // The single "shard" is the whole resident database.
  EXPECT_EQ(stats.shard_bytes_max,
            db.rows() * db.words_per_row() * sizeof(std::uint64_t));
  EXPECT_GE(stats.bytes_peak, stats.shard_bytes_max);
  EXPECT_EQ(stats.index_bytes, index.storage_bytes());
}

TEST(HvAnnTest, ShardedBuildRejectsEmptySource) {
  const hdc::hv::ShardedBitMatrix empty;
  const hdc::hv::ShardedBitMatrixSource source(empty);
  EXPECT_THROW((void)ann::Index::build_sharded(source),
               std::invalid_argument);
}

// One batched sketch_scan call per probed cell: the stat is exactly the
// probe count, and recording it never changes results.
TEST(HvAnnTest, SketchBlocksStatCountsProbedCells) {
  const PackedHVs db = clustered_rows(400, 256, 8, 0.05, 31);
  const PackedHVs queries = clustered_rows(25, 256, 8, 0.05, 32);
  const ann::Index index = ann::Index::build(db);
  ann::SearchStats stats;
  (void)index.nearest(queries, db, {}, &stats);
  EXPECT_EQ(stats.sketch_blocks, stats.probes);
  EXPECT_GT(stats.sketch_blocks, 0u);
}

TEST(HvAnnTest, ResolvedConfigIsPersistedAndNeverZero) {
  const PackedHVs db = random_rows(100, 256, 10);
  const ann::Index index = ann::Index::build(db);
  EXPECT_GT(index.config().cells, 0u);
  EXPECT_GT(index.config().nprobe, 0u);
  EXPECT_LE(index.config().nprobe, index.cells());
  EXPECT_EQ(index.cells(), index.config().cells);
}

TEST(HvAnnTest, SaveLoadRoundTripIsByteIdentical) {
  const PackedHVs db = clustered_rows(300, 512, 8, 0.05, 11);
  const ann::Index index = ann::Index::build(db);
  const std::string bytes = serialized(index);

  std::istringstream in(bytes);
  const ann::Index loaded = ann::Index::load(in);
  EXPECT_EQ(loaded, index);
  EXPECT_EQ(serialized(loaded), bytes);

  // A loaded index answers queries identically to the freshly built one.
  const PackedHVs queries = random_rows(10, 512, 12);
  EXPECT_EQ(loaded.nearest(queries, db), index.nearest(queries, db));
  loaded.check_database(db);  // fingerprint survives the round-trip
}

TEST(HvAnnTest, LoadRejectsCorruptedStreams) {
  const PackedHVs db = random_rows(120, 256, 13);
  const ann::Index index = ann::Index::build(db);
  const std::string bytes = serialized(index);

  // Token-level fuzz: flip one character at a stride of positions.
  std::size_t rejected = 0;
  std::size_t mutations = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 97) {
    std::string bad = bytes;
    bad[pos] = bad[pos] == 'z' ? 'y' : 'z';
    if (bad == bytes) continue;
    ++mutations;
    std::istringstream in(bad);
    try {
      const ann::Index loaded = ann::Index::load(in);
      // Word blocks carry their own checksum, so a mutation that survives
      // parsing must be caught by the fingerprint check against the real
      // database.
      try {
        loaded.check_database(db);
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  ASSERT_GT(mutations, 0u);
  // Tokens are validated in full and word blocks by their checksum; the
  // vast majority of single-byte flips must be rejected outright.
  EXPECT_GE(rejected, mutations * 9 / 10);

  // Truncations never parse (the last bytes are the sketch block + newline,
  // so cutting 4 bytes in always leaves the block short).
  for (const std::size_t keep : {0UL, 5UL, bytes.size() / 2, bytes.size() - 4}) {
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW((void)ann::Index::load(in), std::runtime_error) << keep;
  }
}

TEST(HvAnnTest, CheckDatabaseRejectsMismatch) {
  const PackedHVs db = random_rows(80, 256, 14);
  const PackedHVs other = random_rows(80, 256, 15);
  const PackedHVs smaller = random_rows(40, 256, 14);
  const ann::Index index = ann::Index::build(db);
  EXPECT_NO_THROW(index.check_database(db));
  EXPECT_THROW(index.check_database(other), std::invalid_argument);
  EXPECT_THROW(index.check_database(smaller), std::invalid_argument);
  EXPECT_THROW((void)index.nearest(random_rows(3, 128, 16), db),
               std::invalid_argument);
}

TEST(HvAnnTest, BuildRejectsBadInputs) {
  EXPECT_THROW((void)ann::Index::build(PackedHVs()), std::invalid_argument);
  const PackedHVs db = random_rows(10, 128, 17);
  ann::Config bad;
  bad.rerank_fraction = 1.5;
  EXPECT_THROW((void)ann::Index::build(db, bad), std::invalid_argument);
  bad = {};
  bad.sketch_bits = 0;
  EXPECT_THROW((void)ann::Index::build(db, bad), std::invalid_argument);
  const ann::Index empty;
  EXPECT_THROW((void)empty.nearest(db, db), std::logic_error);
}

TEST(HvAnnTest, ConcurrentQueriesAreRaceFreeAndIdentical) {
  const PackedHVs db = clustered_rows(600, 512, 12, 0.05, 18);
  const PackedHVs queries = clustered_rows(50, 512, 12, 0.08, 19);
  const ann::Index index = ann::Index::build(db);
  const std::vector<Neighbor> reference = index.nearest(queries, db);

  constexpr int kThreads = 4;
  std::vector<std::vector<Neighbor>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = index.nearest(queries, db); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const auto& result : results) EXPECT_EQ(result, reference);
}

}  // namespace
