#include "ml/sharded.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace hdc::ml {

MaterializedShardSource::MaterializedShardSource(
    const hv::ShardedBitMatrix& bits, std::span<const int> labels)
    : bits_(&bits), labels_(labels) {
  if (labels.size() != bits.rows()) {
    throw std::invalid_argument(
        "MaterializedShardSource: " + std::to_string(labels.size()) +
        " labels for " + std::to_string(bits.rows()) + " rows");
  }
}

SingleShardSource::SingleShardSource(const hv::BitMatrix& bits,
                                     std::span<const int> labels)
    : bits_(&bits), labels_(labels) {
  if (labels.size() != bits.rows()) {
    throw std::invalid_argument(
        "SingleShardSource: " + std::to_string(labels.size()) +
        " labels for " + std::to_string(bits.rows()) + " rows");
  }
}

std::vector<std::size_t> strided_subsample(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> indices;
  if (n <= cap) {
    indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) indices[i] = i;
    return indices;
  }
  indices.resize(cap);
  for (std::size_t i = 0; i < cap; ++i) indices[i] = i * n / cap;
  return indices;
}

hv::BitMatrix gather_rows(const ShardSource& src,
                          std::span<const std::size_t> indices) {
  hv::PackedHVs out(src.cols(), indices.size());
  std::size_t pos = 0;
  for (std::size_t s = 0; s < src.num_shards() && pos < indices.size(); ++s) {
    const std::size_t begin = src.shard_begin(s);
    const std::size_t end = begin + src.shard_rows(s);
    if (indices[pos] >= end) continue;  // nothing wanted here: stay streaming
    const hv::BitMatrix& shard = src.shard(s);
    const std::size_t wpr = shard.words_per_row();
    while (pos < indices.size() && indices[pos] < end) {
      const std::uint64_t* row = shard.row_bits(indices[pos] - begin);
      std::copy(row, row + wpr, out.row(pos));
      ++pos;
    }
  }
  if (pos != indices.size()) {
    throw std::out_of_range("gather_rows: index beyond the last shard");
  }
  return hv::BitMatrix::from_rows(std::move(out));
}

std::vector<int> gather_labels(std::span<const int> labels,
                               std::span<const std::size_t> indices) {
  std::vector<int> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(labels[i]);
  return out;
}

void note_hist_merge(std::size_t ops) {
  static obs::Counter& merges = obs::counter("ml.hist_merge_ops");
  merges.add(ops);
}

}  // namespace hdc::ml
