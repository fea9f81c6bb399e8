// Out-of-core row-range access to datasets.
//
// A ChunkedDataset materializes any contiguous row range [begin, end) as an
// ordinary in-memory Dataset on demand; no backend requires the full cohort
// resident at once. Chunking is invariant by contract: for any split of
// [0, n_rows()) into consecutive ranges, concatenating the chunks equals
// chunk(0, n_rows()) row for row — the property the sharded encode and train
// paths (hv::ShardedBitMatrix, ml::ShardSource) gate their bit-identity on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "data/csv_detail.hpp"
#include "data/dataset.hpp"

namespace hdc::data {

/// Half-open row range [begin, end).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t rows() const noexcept { return end - begin; }
  bool operator==(const ChunkRange&) const noexcept = default;
};

/// Contiguous shard plan covering [0, rows) in ascending order: every shard
/// is `shard_rows` long except a shorter tail. shard_rows == 0 means "one
/// shard with everything"; rows == 0 yields an empty plan.
[[nodiscard]] std::vector<ChunkRange> make_shard_plan(std::size_t rows,
                                                      std::size_t shard_rows);

/// Abstract chunk source. chunk(begin, end) is a pure function of the range:
/// calling it twice, or in any order, yields identical rows.
class ChunkedDataset {
 public:
  virtual ~ChunkedDataset() = default;
  [[nodiscard]] virtual std::size_t n_rows() const = 0;
  [[nodiscard]] virtual const std::vector<ColumnSpec>& columns() const = 0;
  /// Materialize rows [begin, end); requires begin <= end <= n_rows().
  [[nodiscard]] virtual Dataset chunk(std::size_t begin,
                                      std::size_t end) const = 0;
  [[nodiscard]] std::size_t n_cols() const { return columns().size(); }

 protected:
  /// Shared range validation for chunk() implementations.
  void check_range(std::size_t begin, std::size_t end, const char* who) const;
};

/// Chunk view over an already-resident Dataset (caller keeps it alive).
class InMemoryChunks final : public ChunkedDataset {
 public:
  explicit InMemoryChunks(const Dataset& ds) : ds_(&ds) {}
  [[nodiscard]] std::size_t n_rows() const override { return ds_->n_rows(); }
  [[nodiscard]] const std::vector<ColumnSpec>& columns() const override {
    return ds_->columns();
  }
  [[nodiscard]] Dataset chunk(std::size_t begin, std::size_t end) const override;

 private:
  const Dataset* ds_;
};

/// Deterministic synthetic cohort: chunks come from
/// make_synthetic_cohort_range, where row i is a pure function of (i, seed),
/// so nothing is resident until a chunk is requested.
class SyntheticCohortChunks final : public ChunkedDataset {
 public:
  SyntheticCohortChunks(std::size_t rows, std::uint64_t seed);
  [[nodiscard]] std::size_t n_rows() const override { return rows_; }
  [[nodiscard]] const std::vector<ColumnSpec>& columns() const override {
    return columns_;
  }
  [[nodiscard]] Dataset chunk(std::size_t begin, std::size_t end) const override;

 private:
  std::size_t rows_;
  std::uint64_t seed_;
  std::vector<ColumnSpec> columns_;
};

/// Streaming CSV chunks. A construction-time prescan parses the header,
/// validates every data line (cell-count mismatches get an error carrying
/// the 1-based file line number), infers binary column kinds, and records
/// one byte offset per data row — so chunk() is random access and only the
/// requested rows are ever resident. chunk() seeks once to its first row's
/// offset and reads the range in file order, skipping blank lines as the
/// prescan does. Every row must still start at its recorded offset and
/// re-validates, so a file rewritten mid-stream (rows shifted, or a
/// different column count) fails with the offending row's 1-based line
/// number instead of producing silently misaligned rows.
class CsvStreamChunks final : public ChunkedDataset {
 public:
  explicit CsvStreamChunks(std::string path, CsvOptions options = {});
  [[nodiscard]] std::size_t n_rows() const override { return offsets_.size(); }
  [[nodiscard]] const std::vector<ColumnSpec>& columns() const override {
    return columns_;
  }
  [[nodiscard]] Dataset chunk(std::size_t begin, std::size_t end) const override;

 private:
  std::string path_;
  CsvOptions options_;
  detail::CsvHeader header_;
  std::vector<ColumnSpec> columns_;
  std::vector<std::uint64_t> offsets_;  // byte offset of each data row
  std::vector<std::uint64_t> lines_;    // 1-based file line of each data row
};

}  // namespace hdc::data
