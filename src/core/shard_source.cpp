#include "core/shard_source.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace hdc::core {

namespace {

/// Byte footprint of the dense chunk that feeds the encoder (values +
/// labels); alive only while the shard is being encoded.
std::size_t chunk_bytes(const data::Dataset& ds) noexcept {
  return ds.n_rows() * (ds.n_cols() * 8 + 4);
}

}  // namespace

EncodingShardSource::EncodingShardSource(const data::ChunkedDataset& chunks,
                                         const HdcFeatureExtractor& extractor,
                                         std::size_t shard_rows)
    : chunks_(&chunks), extractor_(&extractor) {
  if (!extractor.fitted()) {
    throw std::invalid_argument("EncodingShardSource: extractor not fitted");
  }
  rows_ = chunks.n_rows();
  if (rows_ == 0) {
    throw std::invalid_argument("EncodingShardSource: empty chunk source");
  }
  plan_ = data::make_shard_plan(rows_, shard_rows);
  // Label prescan, one chunk resident at a time.
  labels_.reserve(rows_);
  for (const data::ChunkRange& range : plan_) {
    const data::Dataset chunk = chunks.chunk(range.begin, range.end);
    const std::vector<int>& y = chunk.labels();
    labels_.insert(labels_.end(), y.begin(), y.end());
  }
}

std::size_t EncodingShardSource::shard_begin(std::size_t s) const {
  if (s >= plan_.size()) {
    throw std::out_of_range("EncodingShardSource: shard index out of range");
  }
  return plan_[s].begin;
}

const hv::BitMatrix& EncodingShardSource::shard(std::size_t s) const {
  if (s >= plan_.size()) {
    throw std::out_of_range("EncodingShardSource: shard index out of range");
  }
  if (s == current_shard_) return current_;
  current_shard_ = static_cast<std::size_t>(-1);
  const data::Dataset chunk = chunks_->chunk(plan_[s].begin, plan_[s].end);
  // Encoded into the previous shard's row and plane buffers: after the
  // first load, a reload maps no fresh memory.
  extractor_->transform_bits_into(chunk, current_);
  current_shard_ = s;

  obs::gauge("data.shards_resident").set(1);
  const std::size_t resident = current_.resident_bytes() + chunk_bytes(chunk);
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident);
  // The gauge holds the high-water mark so the exported value IS the peak.
  obs::Gauge& peak = obs::gauge("data.shard_bytes_peak");
  if (static_cast<std::int64_t>(peak_resident_bytes_) > peak.value()) {
    peak.set(static_cast<std::int64_t>(peak_resident_bytes_));
  }
  return current_;
}

}  // namespace hdc::core
