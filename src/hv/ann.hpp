// Sub-linear approximate nearest-neighbour index over packed hypervectors.
//
// The paper's flagship classifier is 1-NN by Hamming distance, and hv/search
// answers it with an exact tiled sweep — O(n) words per query. This module
// adds the piece that makes "millions of stored patients" serveable: a
// coarse-filter / exact-rerank index in three stages, all running through
// the existing simd::Kernels dispatch table:
//
//   1. coarse quantizer — k-means-style cells over the packed vectors.
//      Centroids are majority bundles (the HDC prototype operation) refined
//      with a fixed number of Lloyd iterations under fixed seeds, so a build
//      is bit-identical across runs and thread counts. A query ranks all
//      cells by exact centroid distance and visits the `nprobe` closest.
//   2. sketch filter — every database row carries a short Hamming sketch
//      (64–512 deterministically seed-sampled bit positions, stored as
//      contiguous words in cell order, so probing a cell streams them
//      linearly). Sketch distances preserve Hamming neighbourhood structure
//      ("Efficient Hyperdimensional Computing"-style short HVs), so the
//      filter keeps only the most promising candidates per query.
//   3. exact rerank — the surviving candidates are scored with the same
//      full-width Hamming kernel the exact sweep uses, so every returned
//      distance is exact; approximation can only come from a candidate set
//      that misses the true neighbour. A block of up to 64 queries shares
//      one row-ordered rerank pass, so a database row wanted by several
//      queries of the block is read once.
//
// `SearchOptions::exact` bypasses all of it and routes to the hv/search
// kernels, byte-identical to nearest_neighbors / top_k_neighbors (the
// fallback contract, property-tested in tests/hv_ann_test.cpp). With
// `nprobe == cells()` and `rerank_fraction == 1.0` the index path visits
// every row and is also exactly identical to the exact kernels.
//
// The index never owns the database: it stores centroids, cell membership,
// sketches, and an FNV-1a fingerprint of the packed words it was built
// over. check_database() verifies the fingerprint (bundle load does this),
// and every search re-checks the cheap shape fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "hv/search.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::hv {
class BitShardSource;  // hv/sharded_bits.hpp
}

namespace hdc::hv::ann {

/// Build-time parameters. Zeros mean "resolve from the database size at
/// build"; the resolved values are what serialize, so a loaded index never
/// re-derives them.
struct Config {
  /// Sketch width in bits, 64–512 typical (rounded up to a whole word
  /// internally). 256 keeps the golden-dataset recall gate with a ~2%
  /// per-candidate overhead at dim 10000.
  std::size_t sketch_bits = 256;
  /// Number of coarse cells; 0 = ~sqrt(rows), clamped to [1, rows].
  std::size_t cells = 0;
  /// Default cells visited per query; 0 resolves to
  /// max(8, cells/8, ceil(600 * cells / rows)) clamped to cells — the last
  /// term floors the expected candidate count at ~600 rows, so small
  /// databases probe most of their cells (recall-safe) while large ones
  /// keep the sub-linear profile.
  std::size_t nprobe = 0;
  /// Lloyd refinement passes over the (sampled) rows.
  std::size_t lloyd_iterations = 4;
  /// Row-count cap for the Lloyd passes (strided deterministic sample);
  /// the final assignment always covers every row.
  std::size_t lloyd_sample = 16384;
  /// Fraction of sketch-scanned candidates that get an exact rerank ...
  double rerank_fraction = 0.15;
  /// ... but never fewer than this many (or than the requested k).
  std::size_t min_rerank = 128;
  /// Seed for sketch-position sampling; part of the bit-identity contract.
  std::uint64_t seed = 0x5EEDA11CE5ULL;

  bool operator==(const Config&) const noexcept = default;
};

struct SearchOptions {
  /// Cells visited per query; 0 = the index default (config().nprobe).
  std::size_t nprobe = 0;
  /// Bypass the index entirely: byte-identical to hv::nearest_neighbors /
  /// hv::top_k_neighbors on the same inputs.
  bool exact = false;
  /// Leave-one-out mode: query i skips database row i (requires
  /// queries.rows() == database.rows(), as in hv::SearchOptions).
  bool exclude_same_index = false;
  /// Worker pool (nullptr = process-wide pool). Results never depend on it.
  parallel::ThreadPool* pool = nullptr;
};

/// Work accounting for a search call, aggregated over all queries. The
/// word_ops unit matches hv.search.word_ops (64-bit XOR+popcount word
/// visits), so exact-vs-ann reductions are directly comparable.
struct SearchStats {
  std::uint64_t queries = 0;
  std::uint64_t probes = 0;      // cells visited
  std::uint64_t candidates = 0;  // rows sketch-scanned inside probed cells
  std::uint64_t reranked = 0;    // rows exactly reranked
  std::uint64_t word_ops = 0;    // centroid scan + sketch scan + rerank words
  std::uint64_t sketch_blocks = 0;  // contiguous cell spans batch-scanned
};

/// Build-side memory accounting, filled by build()/build_sharded(). The
/// peak is measured from the live container sizes plus the resident shard
/// at a handful of high-water checkpoints — the number the bounded-memory
/// gate in bench_ann compares against its analytic budget.
struct BuildStats {
  std::uint64_t bytes_peak = 0;       // working set + resident shard
  std::uint64_t shard_bytes_max = 0;  // largest single resident shard
  std::uint64_t index_bytes = 0;      // finished index storage
  std::uint64_t shards = 0;           // shards streamed per pass
};

namespace detail {
/// One resident shard of the build input: `rows` packed rows starting at
/// global row `begin`, row-major with the database's words-per-row stride.
/// `resident_bytes` is what the producing source holds for this shard
/// (build accounting only — never affects the result).
struct BuildShard {
  std::size_t begin = 0;
  std::size_t rows = 0;
  const std::uint64_t* words = nullptr;
  std::size_t resident_bytes = 0;
};
}  // namespace detail

class Index {
 public:
  Index() = default;

  /// Deterministic build over `database` (bit-identical for a fixed config
  /// across runs, thread counts, and SIMD tiers).
  [[nodiscard]] static Index build(const PackedHVs& database,
                                   const Config& config = {},
                                   parallel::ThreadPool* pool = nullptr,
                                   BuildStats* stats = nullptr);

  /// Build from a shard stream with at most one shard resident: pass 1
  /// collects the strided Lloyd sample and initial centroids shard-by-shard
  /// (and the database fingerprint), pass 2 assigns every row, pass 3 writes
  /// each row's sketch straight into its cell-grouped slot. Every collected
  /// quantity is a pure function of global row order, so the result is
  /// byte-identical (save() cmp) to build() over the concatenated rows at
  /// any shard count. The source is streamed three times; re-requesting a
  /// shard must reproduce identical bits (the BitShardSource contract).
  [[nodiscard]] static Index build_sharded(const BitShardSource& source,
                                           const Config& config = {},
                                           parallel::ThreadPool* pool = nullptr,
                                           BuildStats* stats = nullptr);

  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t cells() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t sketch_words() const noexcept { return sketch_words_; }
  /// Resolved build parameters (cells/nprobe are never 0 on a built index).
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  /// FNV-1a 64 over the packed database words (plus shape), captured at
  /// build time.
  [[nodiscard]] std::uint64_t database_fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Bytes held by the index's own storage (centroids, offsets, members,
  /// sketches, positions) — the "index storage" term of the streamed-build
  /// memory budget.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return (centroids_.size() + offsets_.size() + members_.size() +
            sketches_.size()) * sizeof(std::uint64_t) +
           positions_.size() * sizeof(std::uint32_t);
  }

  /// Throws std::invalid_argument unless `database` has the fingerprint the
  /// index was built over. O(rows * words) — called at attach time, not
  /// per query.
  void check_database(const PackedHVs& database) const;
  /// The same check against `database_fingerprint`, the caller's
  /// packed_fingerprint(database) (bundle load takes it while reading the
  /// rows), so the rows are not hashed again.
  void check_database(const PackedHVs& database,
                      std::uint64_t database_fingerprint) const;

  /// Approximate nearest database row per query (exact distances, ties ->
  /// lowest database index among the reranked candidates). `database` must
  /// be the array the index was built over (shape-checked every call,
  /// fingerprint-checked via check_database()).
  [[nodiscard]] std::vector<Neighbor> nearest(const PackedHVs& queries,
                                              const PackedHVs& database,
                                              const SearchOptions& options = {},
                                              SearchStats* stats = nullptr) const;

  /// Approximate k nearest rows per query, sorted by (distance, index).
  /// Queries are searched in blocks of up to 64: each query ranks the cells,
  /// sketch-scans its probed cells and picks its rerank set by a
  /// sketch-distance histogram (everything below the threshold distance,
  /// then the lowest rows among the ties at it); the block's (row, query)
  /// pairs are then sorted by row, so each database row is read once for
  /// every query of the block that reranks it. Answers and stats do not
  /// depend on how queries are grouped. When `per_query` is non-null it is
  /// resized to one SearchStats per query row (`stats` holds their sum).
  [[nodiscard]] std::vector<std::vector<Neighbor>> top_k(
      const PackedHVs& queries, const PackedHVs& database, std::size_t k,
      const SearchOptions& options = {}, SearchStats* stats = nullptr,
      std::vector<SearchStats>* per_query = nullptr) const;

  /// Serde round-trip (the bundle's `ann` section body, `hv.ann v2`): the
  /// centroids and sketches are util::serde word blocks, the rest tokens.
  /// save(load(save(x))) is byte-identical; load throws std::runtime_error
  /// on any malformed input.
  void save(std::ostream& out) const;
  [[nodiscard]] static Index load(std::istream& in);

  bool operator==(const Index&) const noexcept = default;

 private:
  friend struct IndexLayout;  // read access for the layout tests

  /// Shared build core: both entry points present their input as a stream
  /// of `num_shards` row-major shard views (build() as one whole-database
  /// shard), so streamed and in-memory builds run the identical arithmetic.
  [[nodiscard]] static Index build_impl(
      std::size_t rows, std::size_t bits, std::size_t num_shards,
      const std::function<detail::BuildShard(std::size_t)>& load_shard,
      const Config& config, parallel::ThreadPool* pool, BuildStats* stats);

  /// Sketch the row at `words` into `out` (sketch_words_ words).
  void sketch_row(const std::uint64_t* words, std::uint64_t* out) const;

  Config config_;                        // resolved at build
  std::size_t bits_ = 0;                 // database dimensionality
  std::size_t words_per_row_ = 0;        // full-width words per row
  std::size_t rows_ = 0;
  std::size_t sketch_words_ = 0;         // ceil(sketch_bits / 64)
  std::uint64_t fingerprint_ = 0;
  std::vector<std::uint32_t> positions_; // sampled bit positions (from seed)
  // The two arrays the scan reads row by row are PackedWords: from 128 KB
  // up they are mapped, so they start on a page whatever was allocated
  // before them.
  PackedWords centroids_;                // cells * words_per_row_
  std::vector<std::uint64_t> offsets_;   // cells + 1, prefix sums into members_
  std::vector<std::uint64_t> members_;   // rows_ database indices, cell-grouped
  PackedWords sketches_;                 // rows_ * sketch_words_, member order
};

}  // namespace hdc::hv::ann
