// Shard-at-a-time training inputs.
//
// A ShardSource hands a model one BitMatrix shard at a time — contiguous,
// ascending global row ranges, exactly the blocks a ShardedBitMatrix or the
// out-of-core encode path produces. Only one shard need be resident at once
// (the reference a shard() call returns is valid until the next call), so a
// model that trains through this interface never sees the full design
// matrix. Labels stay fully resident: 4 bytes/row is noise next to the
// bitplanes.
//
// The sharded fit paths lean on two exact merge mechanisms:
//   1. order-free integer addition — popcounts and class counts are
//      integers, so per-shard partials merged in any order equal the
//      single-shard statistic bit for bit;
//   2. carried sequential accumulation — a float accumulator carried across
//      shards in ascending global row order executes the identical IEEE op
//      sequence regardless of where the shard boundaries fall.
// Per-shard *float* partial sums merged afterwards are neither, and are
// deliberately absent from this API.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hv/sharded_bits.hpp"
#include "ml/classifier.hpp"  // the fit_shards entry point

namespace hdc::ml {

/// Sequence of bit-packed shards in ascending global row order: the shard
/// geometry and single-resident-shard contract of hv::BitShardSource, plus
/// the labels the supervised fit paths need. Labels stay fully resident:
/// 4 bytes/row is noise next to the bitplanes.
class ShardSource : public hv::BitShardSource {
 public:
  /// Labels for all rows in ascending global order (fully resident).
  [[nodiscard]] virtual std::span<const int> labels() const = 0;
};

/// ShardSource over an already-encoded ShardedBitMatrix (both borrowed).
class MaterializedShardSource final : public ShardSource {
 public:
  MaterializedShardSource(const hv::ShardedBitMatrix& bits,
                          std::span<const int> labels);

  [[nodiscard]] std::size_t rows() const override { return bits_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return bits_->cols(); }
  [[nodiscard]] std::size_t num_shards() const override {
    return bits_->num_shards();
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return bits_->shard_begin(s);
  }
  [[nodiscard]] const hv::BitMatrix& shard(std::size_t s) const override {
    return bits_->shard(s);
  }
  [[nodiscard]] std::span<const int> labels() const override { return labels_; }

 private:
  const hv::ShardedBitMatrix* bits_;
  std::span<const int> labels_;
};

/// ShardSource over one resident BitMatrix (both borrowed): a single shard
/// covering every row. Models whose fit_bits() is their sharded algorithm
/// run it through this adapter.
class SingleShardSource final : public ShardSource {
 public:
  SingleShardSource(const hv::BitMatrix& bits, std::span<const int> labels);

  [[nodiscard]] std::size_t rows() const override { return bits_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return bits_->cols(); }
  [[nodiscard]] std::size_t num_shards() const override { return 1; }
  [[nodiscard]] std::size_t shard_begin(std::size_t /*s*/) const override {
    return 0;
  }
  [[nodiscard]] const hv::BitMatrix& shard(std::size_t /*s*/) const override {
    return *bits_;
  }
  [[nodiscard]] std::span<const int> labels() const override { return labels_; }

 private:
  const hv::BitMatrix* bits_;
  std::span<const int> labels_;
};

/// Row cap for fit_shards() paths that must train on a resident subset
/// (SVC's kernel matrix, the Classifier default).
inline constexpr std::size_t kShardSubsampleRows = 2048;

/// Deterministic strided subsample: n <= cap selects every row; otherwise
/// the cap indices i*n/cap — strictly ascending, distinct, and a pure
/// function of (n, cap), so the selection is shard-count-invariant.
[[nodiscard]] std::vector<std::size_t> strided_subsample(std::size_t n,
                                                         std::size_t cap);

/// Materialize the given ascending global row indices as one BitMatrix,
/// touching each shard at most once.
[[nodiscard]] hv::BitMatrix gather_rows(const ShardSource& src,
                                        std::span<const std::size_t> indices);

[[nodiscard]] std::vector<int> gather_labels(
    std::span<const int> labels, std::span<const std::size_t> indices);

/// Bump the `ml.hist_merge_ops` counter: one op per per-shard histogram /
/// popcount block merged by integer addition.
void note_hist_merge(std::size_t ops);

}  // namespace hdc::ml
