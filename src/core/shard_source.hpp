// core::EncodingShardSource — the out-of-core training source.
//
// Bridges a data::ChunkedDataset (CSV stream, synthetic generator, or
// in-memory view) and a fitted HdcFeatureExtractor into an ml::ShardSource:
// each shard() call materializes one row-range chunk and encodes it into the
// previous shard's row and plane buffers, overwriting that shard. One
// shard's buffers stay resident, sized for the largest shard loaded so far;
// at no point is the full cohort's dense matrix or bitplane set resident.
// Because row i's encoding is a pure function of (row bytes, extractor), and
// every consumer merges per-shard integer statistics, results are
// bit-identical at any shard size.
//
// Observability: each shard load updates the `data.shards_resident` gauge
// and the `data.shard_bytes_peak` high-water gauge (measured from the actual
// resident chunk + bitplane geometry, not estimated).
#pragma once

#include <cstddef>
#include <vector>

#include "core/extractor.hpp"
#include "data/chunked.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"

namespace hdc::core {

class EncodingShardSource final : public ml::ShardSource {
 public:
  /// Plans ceil(rows / shard_rows) contiguous shards (shard_rows == 0 means
  /// one shard) and prescans labels chunk-at-a-time. `chunks` and
  /// `extractor` must outlive the source; the extractor must be fitted.
  EncodingShardSource(const data::ChunkedDataset& chunks,
                      const HdcFeatureExtractor& extractor,
                      std::size_t shard_rows);

  [[nodiscard]] std::size_t rows() const override { return rows_; }
  [[nodiscard]] std::size_t cols() const override {
    return extractor_->dimensions();
  }
  [[nodiscard]] std::size_t num_shards() const override { return plan_.size(); }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override;
  [[nodiscard]] const hv::BitMatrix& shard(std::size_t s) const override;
  [[nodiscard]] std::span<const int> labels() const override { return labels_; }

  /// Largest (chunk + bitplane) byte footprint any single shard() call has
  /// held resident so far.
  [[nodiscard]] std::size_t peak_resident_bytes() const noexcept {
    return peak_resident_bytes_;
  }

 private:
  const data::ChunkedDataset* chunks_;
  const HdcFeatureExtractor* extractor_;
  std::vector<data::ChunkRange> plan_;
  std::size_t rows_ = 0;
  std::vector<int> labels_;
  // One shard resident at a time; shard() returns a reference valid until
  // the next shard() call (the ShardSource contract).
  mutable hv::BitMatrix current_;
  mutable std::size_t current_shard_ = static_cast<std::size_t>(-1);
  mutable std::size_t peak_resident_bytes_ = 0;
};

}  // namespace hdc::core
