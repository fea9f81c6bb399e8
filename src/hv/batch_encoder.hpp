// Parallel whole-dataset encoding through a RecordEncoder.
//
// Rows are independent, so the batch is partitioned into contiguous chunks
// across the thread pool; each chunk reuses one RecordEncoder::Scratch (no
// per-row allocation of the feature-vector block). Every row's output depends
// only on that row and the (const) encoders, so results are bit-identical for
// any thread count — the determinism contract the golden tests pin down.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "hv/bit_matrix.hpp"
#include "hv/encoders.hpp"
#include "hv/search.hpp"
#include "hv/sharded_bits.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::hv {

struct BatchEncodeOptions {
  /// Worker pool (nullptr = process-wide pool). Never affects results.
  parallel::ThreadPool* pool = nullptr;
};

class BatchEncoder {
 public:
  /// Supplies the i-th row. Called once per row, possibly from worker
  /// threads (must be safe for concurrent calls with distinct rows);
  /// `scratch` is a per-thread buffer the callback may use to assemble a
  /// derived row (e.g. missing-value substitution) and return a span over.
  using RowFn =
      std::function<std::span<const double>(std::size_t row, std::vector<double>& scratch)>;

  /// The encoder must outlive the BatchEncoder.
  explicit BatchEncoder(const RecordEncoder& encoder, BatchEncodeOptions options = {})
      : encoder_(&encoder), options_(options) {}

  [[nodiscard]] std::size_t bits() const noexcept { return encoder_->bits(); }

  /// Encode `n_rows` rows fetched through `row_of`.
  [[nodiscard]] std::vector<BitVector> encode_rows(std::size_t n_rows,
                                                   const RowFn& row_of) const;

  /// Encode a row-major flat matrix (`values.size() == n_rows * n_cols`).
  [[nodiscard]] std::vector<BitVector> encode_matrix(std::span<const double> values,
                                                     std::size_t n_cols) const;

  /// As encode_rows, but packs straight into a PackedHVs for the search
  /// kernels (one contiguous buffer, no intermediate vector array).
  [[nodiscard]] PackedHVs encode_packed(std::size_t n_rows, const RowFn& row_of) const;

  /// Encode straight into a columnar BitMatrix for the packed ML path: the
  /// packed rows from encode_packed are transposed into bitplanes without
  /// ever materialising a double design matrix.
  [[nodiscard]] BitMatrix encode_bits(std::size_t n_rows, const RowFn& row_of) const;

  /// As encode_bits, but into `out`, whose row and plane buffers are reused
  /// (BitMatrix::release_rows / assign_rows): a caller that re-encodes
  /// same-sized batches maps no fresh memory after the first. The result
  /// is byte-identical to encode_bits. If row_of throws, `out` is left empty.
  void encode_bits_into(std::size_t n_rows, const RowFn& row_of,
                        BitMatrix& out) const;

  /// As encode_bits, but emits one BitMatrix block per `shard_rows`-sized
  /// contiguous row range (shorter tail allowed; shard_rows == 0 = one
  /// shard). Row i is encoded identically regardless of which shard it
  /// lands in, so any chunking yields a byte-identical ShardedBitMatrix
  /// fingerprint — only peak residency changes.
  [[nodiscard]] ShardedBitMatrix encode_bits_chunked(std::size_t n_rows,
                                                     std::size_t shard_rows,
                                                     const RowFn& row_of) const;

 private:
  /// Reshape `out` to n_rows x bits() (keeping its buffer) and encode into it.
  void fill_packed(std::size_t n_rows, const RowFn& row_of, PackedHVs& out) const;

  const RecordEncoder* encoder_;
  BatchEncodeOptions options_;
};

}  // namespace hdc::hv
