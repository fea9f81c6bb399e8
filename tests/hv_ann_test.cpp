// Property tests for the hv::ann coarse-filter / exact-rerank index: the
// exact-fallback byte-identity contract, full-probe equality with the exact
// kernels, seeded rebuild bit-identity, a golden build hash on every SIMD
// tier and pool size, serde round-trips, corruption rejection, fingerprint
// checks, and concurrent const queries (the ctest `ann` label is part of
// the TSan set).
#include "hv/ann.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

// -- Per-query oracle ---------------------------------------------------------
//
// The search as it ran before query blocking: one query at a time, the
// rerank set picked by nth_element over (sketch distance, row), reranked
// rows sorted by (distance, index). It reads the index back from its save()
// body, so it shares no search code with Index::top_k.

struct IndexParts {
  std::size_t bits = 0;
  std::size_t words = 0;
  std::size_t rows = 0;
  std::size_t sketch_words = 0;
  std::size_t nprobe = 0;
  std::size_t min_rerank = 0;
  double rerank_fraction = 0.0;
  std::vector<std::uint32_t> positions;
  std::vector<std::uint64_t> centroids;
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> members;
  std::vector<std::uint64_t> sketches;
};

IndexParts read_parts(const ann::Index& index) {
  std::istringstream in(serialized(index));
  hdc::util::serde::Reader r(in, "oracle");
  r.expect("hv.ann", "tag");
  r.expect_version("v2");
  IndexParts parts;
  parts.bits = r.u64("bits");
  parts.rows = r.u64("rows");
  const std::size_t sketch_bits = r.u64("sketch_bits");
  const std::size_t cells = r.u64("cells");
  parts.nprobe = r.u64("nprobe");
  (void)r.u64("lloyd_iterations");
  (void)r.u64("lloyd_sample");
  parts.rerank_fraction = r.f64("rerank_fraction");
  parts.min_rerank = r.u64("min_rerank");
  const std::uint64_t seed = r.u64("seed");
  (void)r.u64("fingerprint");
  parts.words = (parts.bits + 63) / 64;
  parts.sketch_words = (sketch_bits + 63) / 64;
  parts.centroids.resize(cells * parts.words);
  r.word_block("centroids", parts.centroids);
  parts.offsets = r.vec_u64("offsets", cells + 1);
  parts.members = r.vec_u64("members", parts.rows);
  parts.sketches.resize(parts.rows * parts.sketch_words);
  r.word_block("sketches", parts.sketches);
  constexpr std::uint64_t kSketchSeedStream = 0x534b4554ULL;  // "SKET"
  hdc::util::Rng rng(hdc::util::mix_seed(seed, kSketchSeedStream));
  std::vector<std::size_t> sampled =
      rng.sample_without_replacement(parts.bits, sketch_bits);
  std::sort(sampled.begin(), sampled.end());
  parts.positions.assign(sampled.begin(), sampled.end());
  return parts;
}

bool neighbor_less(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.index < b.index;
}

std::vector<std::vector<Neighbor>> oracle_top_k(const IndexParts& ix,
                                                const PackedHVs& queries,
                                                const PackedHVs& database,
                                                std::size_t k,
                                                bool exclude_same_index,
                                                ann::SearchStats& stats) {
  struct SketchCandidate {
    std::size_t sketch_distance;
    std::uint64_t row;
  };
  const auto sketch_less = [](const SketchCandidate& a,
                              const SketchCandidate& b) {
    return a.sketch_distance != b.sketch_distance
               ? a.sketch_distance < b.sketch_distance
               : a.row < b.row;
  };
  const auto hamming = hdc::simd::active().hamming;
  const std::size_t n_cells = ix.offsets.size() - 1;
  const std::size_t nprobe = ix.nprobe;
  const std::size_t words = ix.words;
  std::vector<std::vector<Neighbor>> out(queries.rows());
  stats = {};
  std::vector<std::size_t> cell_order(n_cells);
  std::vector<std::size_t> cell_distance(n_cells);
  std::vector<std::uint64_t> query_sketch(ix.sketch_words);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const std::uint64_t* qrow = queries.row(q);
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      cell_order[cell] = cell;
      cell_distance[cell] =
          hamming(qrow, ix.centroids.data() + cell * words, words);
    }
    stats.word_ops += n_cells * words;
    std::stable_sort(cell_order.begin(), cell_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cell_distance[a] < cell_distance[b];
                     });
    std::fill(query_sketch.begin(), query_sketch.end(), 0ULL);
    for (std::size_t s = 0; s < ix.positions.size(); ++s) {
      const std::uint32_t bit = ix.positions[s];
      if ((qrow[bit >> 6] >> (bit & 63)) & 1ULL) {
        query_sketch[s >> 6] |= 1ULL << (s & 63);
      }
    }
    std::vector<SketchCandidate> candidates;
    std::uint64_t scanned = 0;
    for (std::size_t p = 0; p < nprobe; ++p) {
      const std::size_t cell = cell_order[p];
      for (std::uint64_t m = ix.offsets[cell]; m < ix.offsets[cell + 1]; ++m) {
        ++scanned;
        const std::uint64_t row = ix.members[m];
        if (exclude_same_index && row == q) continue;
        candidates.push_back(SketchCandidate{
            hamming(query_sketch.data(),
                    ix.sketches.data() + m * ix.sketch_words, ix.sketch_words),
            row});
      }
    }
    stats.probes += nprobe;
    stats.sketch_blocks += nprobe;
    stats.candidates += candidates.size();
    stats.word_ops += scanned * ix.sketch_words;
    ++stats.queries;
    std::vector<Neighbor>& result = out[q];
    if (candidates.empty()) {
      for (std::size_t j = 0; j < ix.rows; ++j) {
        if (exclude_same_index && j == q) continue;
        result.push_back(Neighbor{j, hamming(qrow, database.row(j), words)});
      }
      std::sort(result.begin(), result.end(), neighbor_less);
      if (result.size() > k) result.resize(k);
      stats.reranked += ix.rows;
      stats.word_ops += ix.rows * words;
      continue;
    }
    std::size_t rerank = std::max(
        {ix.min_rerank, k,
         static_cast<std::size_t>(std::ceil(
             ix.rerank_fraction * static_cast<double>(candidates.size())))});
    rerank = std::min(rerank, candidates.size());
    if (rerank < candidates.size()) {
      std::nth_element(candidates.begin(),
                       candidates.begin() + static_cast<std::ptrdiff_t>(rerank - 1),
                       candidates.end(), sketch_less);
    }
    for (std::size_t i = 0; i < rerank; ++i) {
      const std::uint64_t row = candidates[i].row;
      result.push_back(Neighbor{row, hamming(qrow, database.row(row), words)});
    }
    std::sort(result.begin(), result.end(), neighbor_less);
    if (result.size() > k) result.resize(k);
    stats.reranked += rerank;
    stats.word_ops += rerank * words;
  }
  return out;
}

void expect_stats_eq(const ann::SearchStats& got, const ann::SearchStats& want,
                     const std::string& at) {
  EXPECT_EQ(got.queries, want.queries) << at;
  EXPECT_EQ(got.probes, want.probes) << at;
  EXPECT_EQ(got.candidates, want.candidates) << at;
  EXPECT_EQ(got.reranked, want.reranked) << at;
  EXPECT_EQ(got.word_ops, want.word_ops) << at;
  EXPECT_EQ(got.sketch_blocks, want.sketch_blocks) << at;
}

PackedHVs first_rows(const PackedHVs& rows, std::size_t n) {
  PackedHVs out(rows.bits(), n);
  std::copy_n(rows.row(0), n * rows.words_per_row(), out.row(0));
  return out;
}

/// Clustered rows where every third row repeats an earlier one, so many
/// candidates share a sketch distance (ties at the histogram threshold) and
/// an exact distance (ties broken by row index).
PackedHVs rows_with_duplicates(std::size_t rows, std::size_t bits,
                               std::uint64_t seed) {
  PackedHVs db = clustered_rows(rows, bits, 6, 0.04, seed);
  for (std::size_t i = 2; i < rows; i += 3) {
    std::copy_n(db.row(i / 2), db.words_per_row(), db.row(i));
  }
  return db;
}

// Blocked top_k against the per-query oracle over query counts on both
// sides of the 64-query block, k, leave-one-out, every SIMD tier and pool
// sizes 1 and 4 (4 workers split 300 queries into chunks that are not
// block multiples).
TEST(HvAnnTest, BlockedTopKMatchesPerQueryOracle) {
  const PackedHVs db = rows_with_duplicates(600, 700, 51);
  const PackedHVs all_queries = clustered_rows(300, 700, 6, 0.06, 52);
  ann::Config config;
  config.min_rerank = 4;  // a real sketch selection on a small database
  const ann::Index index = ann::Index::build(db, config);
  const IndexParts parts = read_parts(index);

  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(tier);
    for (const std::size_t workers : {1u, 4u}) {
      hdc::parallel::ThreadPool pool(workers);
      for (const std::size_t n_queries : {1u, 2u, 63u, 64u, 65u, 300u}) {
        for (const std::size_t k : {1u, 5u}) {
          for (const bool exclude : {false, true}) {
            const std::string at =
                std::string(hdc::simd::tier_name(tier)) + " x" +
                std::to_string(workers) + " Q=" + std::to_string(n_queries) +
                " k=" + std::to_string(k) + (exclude ? " loo" : "");
            // Leave-one-out needs queries == database: search a database
            // of the first Q rows with its own index.
            const PackedHVs queries = exclude ? first_rows(db, n_queries)
                                              : first_rows(all_queries, n_queries);
            const ann::Index loo_index =
                exclude ? ann::Index::build(queries, config) : ann::Index();
            const ann::Index& searched = exclude ? loo_index : index;
            const IndexParts loo_parts =
                exclude ? read_parts(loo_index) : IndexParts{};
            const PackedHVs& database = exclude ? queries : db;

            ann::SearchOptions options;
            options.pool = &pool;
            options.exclude_same_index = exclude;
            ann::SearchStats got_stats;
            std::vector<ann::SearchStats> per_query;
            const auto got = searched.top_k(queries, database, k, options,
                                            &got_stats, &per_query);
            ann::SearchStats want_stats;
            const auto want = oracle_top_k(exclude ? loo_parts : parts, queries,
                                           database, k, exclude, want_stats);
            ASSERT_EQ(got, want) << at;
            expect_stats_eq(got_stats, want_stats, at);
            ASSERT_EQ(per_query.size(), n_queries) << at;
            ann::SearchStats summed;
            for (const ann::SearchStats& one : per_query) {
              EXPECT_EQ(one.queries, 1u) << at;
              summed.queries += one.queries;
              summed.probes += one.probes;
              summed.candidates += one.candidates;
              summed.reranked += one.reranked;
              summed.word_ops += one.word_ops;
              summed.sketch_blocks += one.sketch_blocks;
            }
            expect_stats_eq(summed, want_stats, at + " per-query sum");
          }
        }
      }
    }
  }
  hdc::simd::reset_tier();
}

// Ties at the threshold sketch distance: with min_rerank 1 and a database
// made of a few rows repeated many times, almost every candidate ties, and
// the rerank set must be the lowest rows among them.
TEST(HvAnnTest, HistogramSelectTakesLowestRowsAmongThresholdTies) {
  const PackedHVs base = random_rows(8, 320, 53);
  PackedHVs db(base.bits(), 400);
  for (std::size_t i = 0; i < db.rows(); ++i) {
    std::copy_n(base.row((i * 7) % base.rows()), base.words_per_row(), db.row(i));
  }
  const PackedHVs queries = random_rows(70, 320, 54);
  ann::Config config;
  config.cells = 4;
  config.min_rerank = 1;
  config.rerank_fraction = 0.1;
  const ann::Index index = ann::Index::build(db, config);
  const IndexParts parts = read_parts(index);
  for (const std::size_t k : {1u, 5u}) {
    ann::SearchStats got_stats;
    ann::SearchStats want_stats;
    const auto got = index.top_k(queries, db, k, {}, &got_stats);
    EXPECT_EQ(got, oracle_top_k(parts, queries, db, k, false, want_stats));
    expect_stats_eq(got_stats, want_stats, "k=" + std::to_string(k));
  }
}

// Leave-one-out over one-row cells probed one at a time: every query's only
// candidate is itself, so each falls back to the exact whole-database scan.
TEST(HvAnnTest, EmptyCandidateSetFallsBackToExactScan) {
  const PackedHVs db = random_rows(40, 256, 55);
  ann::Config config;
  config.cells = db.rows();
  config.nprobe = 1;
  const ann::Index index = ann::Index::build(db, config);
  ASSERT_EQ(index.cells(), db.rows());

  ann::SearchOptions options;
  options.exclude_same_index = true;
  for (const std::size_t k : {1u, 5u}) {
    ann::SearchStats stats;
    const auto got = index.top_k(db, db, k, options, &stats);
    EXPECT_EQ(stats.candidates, 0u);
    EXPECT_EQ(stats.reranked, db.rows() * db.rows());
    ann::SearchStats want_stats;
    EXPECT_EQ(got, oracle_top_k(read_parts(index), db, db, k, true, want_stats));
    expect_stats_eq(stats, want_stats, "k=" + std::to_string(k));
    hdc::hv::SearchOptions exact;
    exact.exclude_same_index = true;
    EXPECT_EQ(got, hdc::hv::top_k_neighbors(db, db, k, exact));
  }
}

}  // namespace
