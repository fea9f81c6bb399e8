// HdcFeatureExtractor — the paper's primary contribution.
//
// Fit on a training dataset: every continuous column gets a LevelEncoder
// over its observed [min, max]; every binary column gets a BinaryEncoder
// (seed / orthogonal pair); each column uses an independent random seed
// stream derived from (seed, column index) so no feature is biased.
// Transform: each row's feature hypervectors are bundled with bitwise
// majority voting (ties -> 1) into one patient hypervector.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/encoders.hpp"
#include "hv/sharded_bits.hpp"
#include "hv/search.hpp"
#include "ml/classifier.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::core {

struct ExtractorConfig {
  std::size_t dimensions = 10000;  // the paper's 10k bits
  hv::TiePolicy tie = hv::TiePolicy::kOne;
  std::uint64_t seed = 0xd1abe7e5;
  /// Treat missing values as the column minimum (paper datasets are cleaned
  /// before encoding, so this only matters for user data).
  bool missing_as_min = true;
};

/// What the extractor learned about one column: enough to rebuild its
/// feature encoder without the training data (what save() persists).
struct ColumnEncoding {
  std::string name;
  data::ColumnKind kind = data::ColumnKind::kContinuous;
  double lo = 0.0;  // observed range (continuous columns only)
  double hi = 0.0;
};

class HdcFeatureExtractor {
 public:
  explicit HdcFeatureExtractor(ExtractorConfig config = {});

  /// Learn per-column ranges from `train` and build the record encoder.
  void fit(const data::Dataset& train);

  /// Rebuild the encoders from previously learned column encodings (model
  /// loading); equivalent to the fit() that produced them.
  void fit_from_columns(std::vector<ColumnEncoding> columns);

  [[nodiscard]] const ExtractorConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<ColumnEncoding>& column_encodings() const {
    return columns_;
  }

  [[nodiscard]] bool fitted() const noexcept { return encoder_ != nullptr; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return config_.dimensions; }

  /// Encode one row (arity must match the fitted dataset).
  [[nodiscard]] hv::BitVector encode_row(std::span<const double> row) const;

  /// Scratch-reusing single-row encode — the serve hot path. Identical
  /// output to encode_row(row); the per-call allocations (feature
  /// hypervectors, level-encoder memo, missing-value substitution buffer)
  /// live in caller-owned buffers that amortise to zero across requests.
  [[nodiscard]] hv::BitVector encode_row(std::span<const double> row,
                                         hv::RecordEncoder::Scratch& scratch,
                                         std::vector<double>& row_buffer) const;

  /// Encode every row of a dataset via the batch engine (parallelised over
  /// `pool`, nullptr = process-wide pool; results identical either way).
  [[nodiscard]] std::vector<hv::BitVector> transform(
      const data::Dataset& ds, parallel::ThreadPool* pool = nullptr) const;

  /// As transform(), but packed for the hv/search kernels.
  [[nodiscard]] hv::PackedHVs transform_packed(
      const data::Dataset& ds, parallel::ThreadPool* pool = nullptr) const;

  /// As transform(), but delivered as a columnar BitMatrix for the packed
  /// ML fast path — no double design matrix is ever materialised.
  [[nodiscard]] hv::BitMatrix transform_bits(
      const data::Dataset& ds, parallel::ThreadPool* pool = nullptr) const;

  /// As transform_bits(), but into `out`, reusing its row and plane
  /// buffers (hv::BatchEncoder::encode_bits_into) — the streamed build's
  /// shard reload. Byte-identical to transform_bits(ds).
  void transform_bits_into(const data::Dataset& ds, hv::BitMatrix& out,
                           parallel::ThreadPool* pool = nullptr) const;

  /// As transform_bits(), but encoded shard-at-a-time into a
  /// ShardedBitMatrix (`shard_rows` rows per shard, 0 = one shard). Row i's
  /// encoding is identical regardless of shard geometry, so any chunking of
  /// the same dataset fingerprints identically.
  [[nodiscard]] hv::ShardedBitMatrix transform_bits_chunked(
      const data::Dataset& ds, std::size_t shard_rows,
      parallel::ThreadPool* pool = nullptr) const;

  /// Encode to a 0/1 double matrix for the ML / NN substrates.
  [[nodiscard]] ml::Matrix transform_to_matrix(const data::Dataset& ds) const;

  /// The underlying per-feature encoders (introspection / tests).
  [[nodiscard]] const hv::RecordEncoder& record_encoder() const;

  /// `hdc-extractor v2` token stream (util::serde): dimensions, seed, tie and
  /// missing-as-min flags, then per column its kind, finite lo/hi and name.
  /// The bundle's `extractor` section. load throws std::runtime_error on
  /// malformed input, including fields that parse but break the
  /// extractor's or an encoder's own rules (dimensions % 4, lo > hi).
  void save(std::ostream& out) const;
  [[nodiscard]] static HdcFeatureExtractor load(std::istream& in);

 private:
  ExtractorConfig config_;
  std::unique_ptr<hv::RecordEncoder> encoder_;
  std::vector<ColumnEncoding> columns_;
  std::vector<double> column_min_;  // for missing_as_min substitution
};

}  // namespace hdc::core
