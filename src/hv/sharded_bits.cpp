#include "hv/sharded_bits.hpp"

#include <stdexcept>
#include <string>

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

}  // namespace hdc::hv
