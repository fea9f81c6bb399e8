// Blocked Hamming-distance search kernels over packed hypervector arrays.
//
// The paper picks binary 10,000-bit hypervectors because Hamming-distance
// classification reduces to XOR + popcount; this module supplies the batch
// form of that idea. Hypervectors are packed row-major into one contiguous
// word buffer (PackedHVs) and distances are computed in cache-sized tiles —
// a database tile stays hot in L2 while a small block of queries sweeps it.
//
// Determinism guarantees (relied on by the golden tests):
//  * every query is processed by exactly one thread, database rows are
//    visited in ascending index order, and ties resolve to the lowest index,
//    so results are bit-identical for any thread count and tile shape;
//  * the kernels match the naive per-pair `BitVector::hamming` loop exactly
//    (property-tested in tests/hv_search_property_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hv/bitvector.hpp"
#include "hv/page_allocator.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::util::serde {
class Reader;
class Writer;
}  // namespace hdc::util::serde

namespace hdc::hv {

/// Row-major packed matrix of equally-sized hypervectors. Rows are stored
/// back-to-back (padding bits zero), so tiled kernels stream it linearly.
class PackedHVs {
 public:
  PackedHVs() = default;

  /// All-zero matrix of `rows` hypervectors of `bits` dimensions.
  PackedHVs(std::size_t bits, std::size_t rows);

  /// Become an all-zero matrix of `rows` hypervectors of `bits` dimensions,
  /// as the constructor would, but keep the word buffer: nothing is
  /// allocated or mapped while `rows` * words_per_row() fits its capacity.
  void reshape(std::size_t bits, std::size_t rows);

  /// Pack a vector array (all inputs must share one dimensionality).
  [[nodiscard]] static PackedHVs pack(std::span<const BitVector> vectors);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_per_row_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  [[nodiscard]] const std::uint64_t* row(std::size_t i) const noexcept {
    return words_.data() + i * words_per_row_;
  }
  [[nodiscard]] std::uint64_t* row(std::size_t i) noexcept {
    return words_.data() + i * words_per_row_;
  }

  /// Overwrite row `i` with `v` (must match bits()).
  void set_row(std::size_t i, const BitVector& v);

  /// Expand row `i` back into a BitVector.
  [[nodiscard]] BitVector unpack_row(std::size_t i) const;

 private:
  std::size_t bits_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t rows_ = 0;
  PackedWords words_;  // large blocks mapped directly (hv/page_allocator.hpp)
};

/// Caps read_packed() applies to counts from an untrusted stream: a
/// corrupted header throws before any allocation is attempted.
inline constexpr std::uint64_t kMaxPackedRows = 1ULL << 24;
inline constexpr std::uint64_t kMaxPackedBits = 1ULL << 26;
inline constexpr std::uint64_t kMaxPackedWords = 1ULL << 30;

/// Codec for packed rows — the one format every bundle section that stores
/// hypervectors uses (the hamming memory, KNN's training bits):
/// "<rows> <bits>", then all rows' words as one util::serde word block.
void write_packed(util::serde::Writer& out, const PackedHVs& rows);

/// Inverse of write_packed(), reading the block straight into the rows.
/// Throws (via `in`, naming `what`) when the row count exceeds `max_rows`,
/// the width exceeds kMaxPackedBits, the total exceeds 2^30 words or the
/// words left in the stream (all checked before allocating), the block's
/// word count or checksum is wrong or it is cut short, or a row sets a
/// padding bit past `bits`. A non-null `fingerprint` receives
/// packed_fingerprint() of the rows, hashed in the same pass as the block.
[[nodiscard]] PackedHVs read_packed(util::serde::Reader& in, const char* what,
                                    std::uint64_t max_rows = kMaxPackedRows,
                                    std::uint64_t* fingerprint = nullptr);

/// FNV-1a 64 state after the (bits, rows) shape prefix of a packed-rows
/// fingerprint, each as 8 little-endian bytes; the words' bytes follow.
[[nodiscard]] std::uint64_t packed_fingerprint_prefix(std::uint64_t bits,
                                                      std::uint64_t rows) noexcept;

/// FNV-1a 64 over the shape prefix and then every word's little-endian
/// bytes: platform-stable, and what an ANN index records of its database.
[[nodiscard]] std::uint64_t packed_fingerprint(const PackedHVs& rows) noexcept;

/// True when any row of `words` (rows of (bits + 63) / 64 words, back to
/// back) sets a bit past `bits`: the padding every PackedHVs row, ANN
/// centroid and ANN sketch keeps zero.
[[nodiscard]] bool padding_bits_set(std::span<const std::uint64_t> words,
                                    std::size_t bits) noexcept;

struct Neighbor {
  std::size_t index = 0;     // database row
  std::size_t distance = 0;  // Hamming distance in bits
  bool operator==(const Neighbor&) const noexcept = default;
};

struct SearchOptions {
  /// Tile shape: how many query rows sweep one resident database tile.
  /// Defaults keep a 10k-bit database tile within typical L2 capacity.
  std::size_t tile_queries = 16;
  std::size_t tile_database = 128;
  /// Leave-one-out mode: skip database row j == query row i. Requires the
  /// queries to be the database itself (same row count).
  bool exclude_same_index = false;
  /// Worker pool (nullptr = process-wide pool). Results never depend on it.
  parallel::ThreadPool* pool = nullptr;
};

/// Nearest database row for every query (ties -> lowest database index).
[[nodiscard]] std::vector<Neighbor> nearest_neighbors(const PackedHVs& queries,
                                                      const PackedHVs& database,
                                                      const SearchOptions& options = {});

/// The `k` nearest database rows per query, sorted by (distance, index).
/// Returns min(k, candidates) entries per query.
[[nodiscard]] std::vector<std::vector<Neighbor>> top_k_neighbors(
    const PackedHVs& queries, const PackedHVs& database, std::size_t k,
    const SearchOptions& options = {});

/// Span conveniences: pack and search in one call.
[[nodiscard]] std::vector<Neighbor> nearest_neighbors(std::span<const BitVector> queries,
                                                      std::span<const BitVector> database,
                                                      const SearchOptions& options = {});

/// Leave-one-out nearest neighbour of every vector among all the others.
[[nodiscard]] std::vector<Neighbor> loo_nearest_neighbors(
    std::span<const BitVector> vectors, const SearchOptions& options = {});

}  // namespace hdc::hv
