// Sharded view over per-chunk BitMatrix blocks.
//
// The out-of-core pipeline encodes a cohort shard-at-a-time; each shard is
// an ordinary BitMatrix over a contiguous, ascending global row range.
// ShardedBitMatrix owns the blocks, serves them to the streamed consumers
// through ShardedBitMatrixSource, and fingerprints the rows the same way
// however they were chunked — the 1-shard vs N-shard bit-identity gate —
// without ever concatenating the bitplanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hv/bit_matrix.hpp"

namespace hdc::hv {

/// Read-only stream of bit-packed shards over contiguous, ascending global
/// row ranges — the minimal geometry the streamed consumers (the ANN
/// builder's `build_sharded`, the sharded ML fit paths) need. Only one
/// shard must be resident at a time: the reference a shard() call returns
/// is valid until the next shard() call on the same source, so streaming
/// backends stay O(shard) in memory. Re-requesting a shard must reproduce
/// identical bits (row encodings are pure functions of the row), which is
/// what lets multi-pass consumers re-stream the same source.
class BitShardSource {
 public:
  virtual ~BitShardSource() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;
  [[nodiscard]] virtual std::size_t num_shards() const = 0;
  /// Global row index of shard s's first row (shards are contiguous:
  /// shard s covers [shard_begin(s), shard_begin(s) + shard_rows(s))).
  [[nodiscard]] virtual std::size_t shard_begin(std::size_t s) const = 0;
  /// Shard s's rows as an ordinary BitMatrix (single-resident contract
  /// above).
  [[nodiscard]] virtual const BitMatrix& shard(std::size_t s) const = 0;

  [[nodiscard]] std::size_t shard_rows(std::size_t s) const {
    return (s + 1 < num_shards() ? shard_begin(s + 1) : rows()) -
           shard_begin(s);
  }
};

class ShardedBitMatrix {
 public:
  ShardedBitMatrix() = default;

  /// Append the next shard (rows follow the previous shard's in global
  /// order). All shards must agree on cols(); empty shards are rejected.
  void append_shard(BitMatrix shard);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return shards_.empty(); }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Global row index of shard s's first row.
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const noexcept {
    return begins_[s];
  }
  [[nodiscard]] std::size_t shard_rows(std::size_t s) const noexcept {
    return shards_[s].rows();
  }
  [[nodiscard]] const BitMatrix& shard(std::size_t s) const noexcept {
    return shards_[s];
  }

  /// FNV-1a over (rows, cols, then every row's row-major words in global
  /// row order). Padding bits are zero and words_per_row depends only on
  /// cols(), so the fingerprint is invariant to how the rows were chunked.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Sum of the resident shards' BitMatrix::resident_bytes().
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> begins_;
  std::vector<BitMatrix> shards_;
};

/// BitShardSource view over an already-resident ShardedBitMatrix
/// (borrowed; every shard stays resident, so this is the bridge path, not
/// the bounded-memory one).
class ShardedBitMatrixSource final : public BitShardSource {
 public:
  explicit ShardedBitMatrixSource(const ShardedBitMatrix& bits)
      : bits_(&bits) {}

  [[nodiscard]] std::size_t rows() const override { return bits_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return bits_->cols(); }
  [[nodiscard]] std::size_t num_shards() const override {
    return bits_->num_shards();
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return bits_->shard_begin(s);
  }
  [[nodiscard]] const BitMatrix& shard(std::size_t s) const override {
    return bits_->shard(s);
  }

 private:
  const ShardedBitMatrix* bits_;
};

}  // namespace hdc::hv
