#include "hv/search.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/serde.hpp"
#include "util/timer.hpp"

namespace hdc::hv {

PackedHVs::PackedHVs(std::size_t bits, std::size_t rows)
    : bits_(bits), words_per_row_((bits + 63) / 64), rows_(rows),
      words_(words_per_row_ * rows, 0ULL) {}

void PackedHVs::reshape(std::size_t bits, std::size_t rows) {
  bits_ = bits;
  words_per_row_ = (bits + 63) / 64;
  rows_ = rows;
  words_.assign(words_per_row_ * rows, 0ULL);
}

PackedHVs PackedHVs::pack(std::span<const BitVector> vectors) {
  if (vectors.empty()) return {};
  PackedHVs out(vectors.front().size(), vectors.size());
  for (std::size_t i = 0; i < vectors.size(); ++i) out.set_row(i, vectors[i]);
  return out;
}

void PackedHVs::set_row(std::size_t i, const BitVector& v) {
  if (v.size() != bits_) {
    throw std::invalid_argument("PackedHVs: row dimensionality mismatch (" +
                                std::to_string(v.size()) + " vs " +
                                std::to_string(bits_) + ")");
  }
  std::copy(v.words().begin(), v.words().end(), row(i));
}

BitVector PackedHVs::unpack_row(std::size_t i) const {
  BitVector out(bits_);
  std::copy(row(i), row(i) + words_per_row_, out.word_data());
  return out;
}

void write_packed(util::serde::Writer& out, const PackedHVs& rows) {
  out.u64(rows.rows()).u64(rows.bits()).nl();
  out.word_block({rows.row(0), rows.rows() * rows.words_per_row()}).nl();
}

PackedHVs read_packed(util::serde::Reader& in, const char* what,
                      std::uint64_t max_rows, std::uint64_t* fingerprint) {
  const std::uint64_t rows = in.count(what, max_rows);
  const std::uint64_t bits = in.count(what, kMaxPackedBits);
  const std::uint64_t wpr = (bits + 63) / 64;
  if (rows * wpr > kMaxPackedWords) {
    throw in.error(std::string(what) + ": packed rows too large");
  }
  in.expect_room(what, rows * wpr);
  PackedHVs packed(bits, rows);
  const std::span<std::uint64_t> words{packed.row(0), rows * wpr};
  if (fingerprint != nullptr) *fingerprint = packed_fingerprint_prefix(bits, rows);
  in.word_block(what, words, fingerprint);
  // Padding bits past `bits` must stay zero (the PackedHVs invariant the
  // search kernels rely on).
  if (padding_bits_set(words, bits)) {
    throw in.error(std::string(what) + ": nonzero padding bits in packed row");
  }
  return packed;
}

static_assert(std::endian::native == std::endian::little,
              "packed fingerprints hash the words' little-endian bytes");

std::uint64_t packed_fingerprint_prefix(std::uint64_t bits, std::uint64_t rows) noexcept {
  const std::uint64_t shape[2] = {bits, rows};
  std::uint64_t h = util::serde::kFnv1a64Basis;
  util::serde::fnv1a64_update(
      {reinterpret_cast<const char*>(shape), sizeof(shape)}, {&h, 1});
  return h;
}

std::uint64_t packed_fingerprint(const PackedHVs& rows) noexcept {
  std::uint64_t h = packed_fingerprint_prefix(rows.bits(), rows.rows());
  util::serde::fnv1a64_update(
      {reinterpret_cast<const char*>(rows.row(0)),
       rows.rows() * rows.words_per_row() * sizeof(std::uint64_t)},
      {&h, 1});
  return h;
}

bool padding_bits_set(std::span<const std::uint64_t> words, std::size_t bits) noexcept {
  if (bits % 64 == 0) return false;
  const std::uint64_t pad_mask = ~0ULL << (bits % 64);
  const std::size_t wpr = (bits + 63) / 64;
  for (std::size_t last = wpr - 1; last < words.size(); last += wpr) {
    if ((words[last] & pad_mask) != 0) return true;
  }
  return false;
}

namespace {

/// Registry handles resolved once per process. Counts are derived
/// arithmetically outside the XOR-popcount loops, so the kernels themselves
/// are untouched and the disabled path costs one relaxed load per chunk.
struct SearchMetrics {
  obs::Counter& queries = obs::counter("hv.search.queries");
  obs::Counter& tiles = obs::counter("hv.search.tiles");
  obs::Counter& word_ops = obs::counter("hv.search.word_ops");
  obs::Histogram& chunk_seconds = obs::histogram("hv.search.chunk_seconds");

  static SearchMetrics& get() {
    static SearchMetrics metrics;
    return metrics;
  }
};

void check_search_inputs(const PackedHVs& queries, const PackedHVs& database,
                         const SearchOptions& options) {
  if (queries.empty() || database.empty()) {
    throw std::invalid_argument("hv::search: empty queries or database");
  }
  if (queries.bits() != database.bits()) {
    throw std::invalid_argument("hv::search: dimensionality mismatch");
  }
  if (options.exclude_same_index) {
    if (queries.rows() != database.rows()) {
      throw std::invalid_argument(
          "hv::search: exclude_same_index needs queries == database");
    }
    if (database.rows() < 2) {
      throw std::invalid_argument("hv::search: leave-one-out needs >= 2 rows");
    }
  }
}

/// Drive `visit(q, j, distance)` over every (query, database) pair in tiled
/// order: queries are chunked across the pool, and within a chunk a database
/// tile is swept by a small block of queries before moving on. For a fixed
/// query, database rows arrive in strictly ascending j order — reductions
/// that only depend on per-query visit order are thread-count-invariant.
template <typename Visit>
void tiled_sweep(const PackedHVs& queries, const PackedHVs& database,
                 const SearchOptions& options, const Visit& visit) {
  const std::size_t words = queries.words_per_row();
  const std::size_t tile_q = std::max<std::size_t>(1, options.tile_queries);
  const std::size_t tile_db = std::max<std::size_t>(1, options.tile_database);
  // Resolve the dispatch-tier kernel once per sweep; obs counters stay
  // derived from tile geometry outside the kernels (see below).
  const auto hamming_kernel = simd::active().hamming;
  parallel::parallel_for_chunks(
      0, queries.rows(),
      [&](std::size_t q_lo, std::size_t q_hi) {
        obs::Span span("hv.search.chunk");
        const bool obs_on = obs::enabled();
        util::Timer timer;
        std::size_t local_tiles = 0;
        std::size_t local_pairs = 0;
        for (std::size_t qt = q_lo; qt < q_hi; qt += tile_q) {
          const std::size_t qt_end = std::min(qt + tile_q, q_hi);
          for (std::size_t jt = 0; jt < database.rows(); jt += tile_db) {
            const std::size_t jt_end = std::min(jt + tile_db, database.rows());
            for (std::size_t q = qt; q < qt_end; ++q) {
              const std::uint64_t* qrow = queries.row(q);
              for (std::size_t j = jt; j < jt_end; ++j) {
                if (options.exclude_same_index && j == q) continue;
                visit(q, j, hamming_kernel(qrow, database.row(j), words));
              }
            }
            if (obs_on) {
              ++local_tiles;
              std::size_t pairs = (qt_end - qt) * (jt_end - jt);
              if (options.exclude_same_index) {
                // Diagonal entries skipped inside this tile.
                const std::size_t lo = std::max(qt, jt);
                const std::size_t hi = std::min(qt_end, jt_end);
                if (hi > lo) pairs -= hi - lo;
              }
              local_pairs += pairs;
            }
          }
        }
        if (obs_on) {
          SearchMetrics& metrics = SearchMetrics::get();
          metrics.queries.add(q_hi - q_lo);
          metrics.tiles.add(local_tiles);
          metrics.word_ops.add(local_pairs * words);
          metrics.chunk_seconds.record(timer.seconds());
        }
      },
      options.pool);
}

}  // namespace

std::vector<Neighbor> nearest_neighbors(const PackedHVs& queries,
                                        const PackedHVs& database,
                                        const SearchOptions& options) {
  check_search_inputs(queries, database, options);
  // Sentinel larger than any real distance; first visited row replaces it.
  std::vector<Neighbor> best(queries.rows(),
                             Neighbor{database.rows(), queries.bits() + 1});
  tiled_sweep(queries, database, options,
              [&](std::size_t q, std::size_t j, std::size_t d) {
                // Database tiles arrive in ascending order per query, so a
                // strict < keeps the lowest index among tied distances.
                if (d < best[q].distance) best[q] = Neighbor{j, d};
              });
  return best;
}

std::vector<std::vector<Neighbor>> top_k_neighbors(const PackedHVs& queries,
                                                   const PackedHVs& database,
                                                   std::size_t k,
                                                   const SearchOptions& options) {
  check_search_inputs(queries, database, options);
  if (k == 0) throw std::invalid_argument("hv::search: k must be >= 1");
  std::vector<std::vector<Neighbor>> best(queries.rows());
  for (auto& heap : best) heap.reserve(k);
  const auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.index < b.index;
  };
  tiled_sweep(queries, database, options,
              [&](std::size_t q, std::size_t j, std::size_t d) {
                std::vector<Neighbor>& list = best[q];
                const Neighbor cand{j, d};
                if (list.size() == k && !worse(cand, list.back())) return;
                // Insertion sort into the short (<= k) candidate list.
                auto pos = std::upper_bound(list.begin(), list.end(), cand, worse);
                list.insert(pos, cand);
                if (list.size() > k) list.pop_back();
              });
  return best;
}

std::vector<Neighbor> nearest_neighbors(std::span<const BitVector> queries,
                                        std::span<const BitVector> database,
                                        const SearchOptions& options) {
  return nearest_neighbors(PackedHVs::pack(queries), PackedHVs::pack(database),
                           options);
}

std::vector<Neighbor> loo_nearest_neighbors(std::span<const BitVector> vectors,
                                            const SearchOptions& options) {
  SearchOptions loo = options;
  loo.exclude_same_index = true;
  const PackedHVs packed = PackedHVs::pack(vectors);
  return nearest_neighbors(packed, packed, loo);
}

}  // namespace hdc::hv
