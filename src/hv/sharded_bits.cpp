#include "hv/sharded_bits.hpp"

#include <stdexcept>

#include "simd/dispatch.hpp"

namespace hdc::hv {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

void ShardedBitMatrix::append_shard(BitMatrix shard) {
  if (shard.empty()) {
    throw std::invalid_argument("ShardedBitMatrix: empty shard");
  }
  if (!shards_.empty() && shard.cols() != cols_) {
    throw std::invalid_argument(
        "ShardedBitMatrix: shard has " + std::to_string(shard.cols()) +
        " cols, expected " + std::to_string(cols_));
  }
  cols_ = shard.cols();
  begins_.push_back(rows_);
  rows_ += shard.rows();
  shards_.push_back(std::move(shard));
}

std::size_t ShardedBitMatrix::column_popcount(std::size_t j) const noexcept {
  std::size_t total = 0;
  for (const BitMatrix& shard : shards_) total += shard.column_popcount(j);
  return total;
}

std::size_t ShardedBitMatrix::shard_column_popcount(
    std::size_t s, std::size_t j) const noexcept {
  return shards_[s].column_popcount(j);
}

std::size_t ShardedBitMatrix::masked_column_popcount(
    std::size_t j, std::span<const RowMask> masks) const {
  if (masks.size() != shards_.size()) {
    throw std::invalid_argument("ShardedBitMatrix: expected one mask per shard");
  }
  const auto& kernels = simd::active();
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    total += kernels.and_popcount(shards_[s].column(j), masks[s].words(),
                                  shards_[s].words_per_column());
  }
  return total;
}

std::uint64_t ShardedBitMatrix::fingerprint() const noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, rows_);
  h = fnv_u64(h, cols_);
  for (const BitMatrix& shard : shards_) {
    const std::size_t wpr = shard.words_per_row();
    for (std::size_t i = 0; i < shard.rows(); ++i) {
      const std::uint64_t* row = shard.row_bits(i);
      for (std::size_t w = 0; w < wpr; ++w) h = fnv_u64(h, row[w]);
    }
  }
  return h;
}

std::size_t ShardedBitMatrix::resident_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const BitMatrix& shard : shards_) bytes += shard.resident_bytes();
  return bytes;
}

BitMatrix ShardedBitMatrix::concatenate() const {
  if (shards_.empty()) return BitMatrix();
  PackedHVs merged(cols_, rows_);
  std::size_t out_row = 0;
  for (const BitMatrix& shard : shards_) {
    const std::size_t wpr = shard.words_per_row();
    for (std::size_t i = 0; i < shard.rows(); ++i, ++out_row) {
      const std::uint64_t* src = shard.row_bits(i);
      std::uint64_t* dst = merged.row(out_row);
      for (std::size_t w = 0; w < wpr; ++w) dst[w] = src[w];
    }
  }
  return BitMatrix::from_rows(std::move(merged));
}

}  // namespace hdc::hv
