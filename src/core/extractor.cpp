#include "core/extractor.hpp"

#include <stdexcept>

#include "hv/batch_encoder.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace hdc::core {

HdcFeatureExtractor::HdcFeatureExtractor(ExtractorConfig config) : config_(config) {
  if (config_.dimensions == 0 || config_.dimensions % 4 != 0) {
    throw std::invalid_argument(
        "HdcFeatureExtractor: dimensions must be a positive multiple of 4");
  }
}

void HdcFeatureExtractor::fit(const data::Dataset& train) {
  if (train.n_rows() == 0) throw std::invalid_argument("HdcFeatureExtractor: empty fit");
  std::vector<ColumnEncoding> columns;
  columns.reserve(train.n_cols());
  for (std::size_t j = 0; j < train.n_cols(); ++j) {
    const data::ColumnSpec& spec = train.column(j);
    ColumnEncoding enc{spec.name, spec.kind, 0.0, 0.0};
    if (spec.kind == data::ColumnKind::kContinuous) {
      const data::ColumnStats stats = train.column_stats(j);
      if (stats.present == 0) {
        throw std::invalid_argument("HdcFeatureExtractor: column '" + spec.name +
                                    "' has no data");
      }
      enc.lo = stats.min;
      enc.hi = stats.max;
    }
    columns.push_back(std::move(enc));
  }
  fit_from_columns(std::move(columns));
}

void HdcFeatureExtractor::fit_from_columns(std::vector<ColumnEncoding> columns) {
  if (columns.empty()) {
    throw std::invalid_argument("HdcFeatureExtractor: no columns");
  }
  encoder_ = std::make_unique<hv::RecordEncoder>(config_.dimensions, config_.tie);
  columns_ = std::move(columns);
  column_min_.assign(columns_.size(), 0.0);
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const std::uint64_t column_seed = util::mix_seed(config_.seed, j + 1);
    const ColumnEncoding& spec = columns_[j];
    if (spec.kind == data::ColumnKind::kBinary) {
      encoder_->add_feature(
          std::make_unique<hv::BinaryEncoder>(config_.dimensions, column_seed));
    } else if (spec.kind == data::ColumnKind::kCategorical) {
      encoder_->add_feature(
          std::make_unique<hv::CategoricalEncoder>(config_.dimensions, column_seed));
    } else {
      encoder_->add_feature(std::make_unique<hv::LevelEncoder>(
          config_.dimensions, spec.lo, spec.hi, column_seed));
      column_min_[j] = spec.lo;
    }
  }
}

const hv::RecordEncoder& HdcFeatureExtractor::record_encoder() const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  return *encoder_;
}

hv::BitVector HdcFeatureExtractor::encode_row(std::span<const double> row) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  if (row.size() != column_min_.size()) {
    throw std::invalid_argument("HdcFeatureExtractor: row arity mismatch");
  }
  bool any_missing = false;
  for (const double v : row) {
    if (data::Dataset::is_missing(v)) any_missing = true;
  }
  if (!any_missing) return encoder_->encode(row);
  if (!config_.missing_as_min) {
    throw std::invalid_argument("HdcFeatureExtractor: missing value in row");
  }
  std::vector<double> fixed(row.begin(), row.end());
  for (std::size_t j = 0; j < fixed.size(); ++j) {
    if (data::Dataset::is_missing(fixed[j])) fixed[j] = column_min_[j];
  }
  return encoder_->encode(fixed);
}

hv::BitVector HdcFeatureExtractor::encode_row(
    std::span<const double> row, hv::RecordEncoder::Scratch& scratch,
    std::vector<double>& row_buffer) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  if (row.size() != column_min_.size()) {
    throw std::invalid_argument("HdcFeatureExtractor: row arity mismatch");
  }
  bool any_missing = false;
  for (const double v : row) {
    if (data::Dataset::is_missing(v)) any_missing = true;
  }
  if (!any_missing) return encoder_->encode(row, scratch);
  if (!config_.missing_as_min) {
    throw std::invalid_argument("HdcFeatureExtractor: missing value in row");
  }
  row_buffer.assign(row.begin(), row.end());
  for (std::size_t j = 0; j < row_buffer.size(); ++j) {
    if (data::Dataset::is_missing(row_buffer[j])) row_buffer[j] = column_min_[j];
  }
  return encoder_->encode(row_buffer, scratch);
}

namespace {

/// Row accessor for the batch encoder: substitutes missing values with the
/// column minimum into `scratch` (same policy as encode_row).
hv::BatchEncoder::RowFn make_row_fn(const data::Dataset& ds,
                                    const ExtractorConfig& config,
                                    const std::vector<double>& column_min) {
  return [&ds, &config, &column_min](std::size_t i, std::vector<double>& scratch)
             -> std::span<const double> {
    const std::span<const double> row = ds.row(i);
    bool any_missing = false;
    for (const double v : row) {
      if (data::Dataset::is_missing(v)) any_missing = true;
    }
    if (!any_missing) return row;
    if (!config.missing_as_min) {
      throw std::invalid_argument("HdcFeatureExtractor: missing value in row");
    }
    scratch.assign(row.begin(), row.end());
    for (std::size_t j = 0; j < scratch.size(); ++j) {
      if (data::Dataset::is_missing(scratch[j])) scratch[j] = column_min[j];
    }
    return scratch;
  };
}

}  // namespace

std::vector<hv::BitVector> HdcFeatureExtractor::transform(
    const data::Dataset& ds, parallel::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  const hv::BatchEncoder batch(*encoder_, {pool});
  return batch.encode_rows(ds.n_rows(), make_row_fn(ds, config_, column_min_));
}

hv::PackedHVs HdcFeatureExtractor::transform_packed(const data::Dataset& ds,
                                                    parallel::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  const hv::BatchEncoder batch(*encoder_, {pool});
  return batch.encode_packed(ds.n_rows(), make_row_fn(ds, config_, column_min_));
}

hv::BitMatrix HdcFeatureExtractor::transform_bits(const data::Dataset& ds,
                                                  parallel::ThreadPool* pool) const {
  hv::BitMatrix out;
  transform_bits_into(ds, out, pool);
  return out;
}

void HdcFeatureExtractor::transform_bits_into(const data::Dataset& ds,
                                              hv::BitMatrix& out,
                                              parallel::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  const hv::BatchEncoder batch(*encoder_, {pool});
  batch.encode_bits_into(ds.n_rows(), make_row_fn(ds, config_, column_min_), out);
}

hv::ShardedBitMatrix HdcFeatureExtractor::transform_bits_chunked(
    const data::Dataset& ds, std::size_t shard_rows,
    parallel::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("HdcFeatureExtractor: not fitted");
  const hv::BatchEncoder batch(*encoder_, {pool});
  return batch.encode_bits_chunked(ds.n_rows(), shard_rows,
                                   make_row_fn(ds, config_, column_min_));
}

ml::Matrix HdcFeatureExtractor::transform_to_matrix(const data::Dataset& ds) const {
  const std::vector<hv::BitVector> vectors = transform(ds);
  ml::Matrix out;
  out.reserve(vectors.size());
  for (const hv::BitVector& v : vectors) out.push_back(v.to_doubles());
  return out;
}

namespace {

constexpr const char* kExtractorMagic = "hdc-extractor";
constexpr const char* kExtractorVersion = "v2";
/// Far above any real table; together they bound the encoder memory
/// (~5 bytes per bit per level-encoded column) a corrupted body can ask for.
constexpr std::uint64_t kMaxColumns = 1ULL << 16;
constexpr std::uint64_t kMaxEncoderBits = 1ULL << 28;

const char* kind_name(data::ColumnKind kind) {
  switch (kind) {
    case data::ColumnKind::kBinary: return "binary";
    case data::ColumnKind::kCategorical: return "categorical";
    default: return "continuous";
  }
}

}  // namespace

void HdcFeatureExtractor::save(std::ostream& out) const {
  if (!fitted()) {
    throw std::invalid_argument("HdcFeatureExtractor::save: extractor is not fitted");
  }
  util::serde::Writer w(out);
  w.tag(kExtractorMagic).tag(kExtractorVersion).nl();
  w.u64(config_.dimensions).u64(config_.seed).nl();
  w.u64(config_.tie == hv::TiePolicy::kZero ? 0 : 1)
      .u64(config_.missing_as_min ? 1 : 0).nl();
  w.u64(columns_.size()).nl();
  for (const ColumnEncoding& column : columns_) {
    w.tag(kind_name(column.kind)).f64(column.lo).f64(column.hi).str(column.name).nl();
  }
}

HdcFeatureExtractor HdcFeatureExtractor::load(std::istream& in) {
  util::serde::Reader r(in, "load hdc-extractor");
  r.expect(kExtractorMagic, "magic");
  r.expect(kExtractorVersion, "format version");
  ExtractorConfig config;
  config.dimensions = r.count("dimensions", hv::kMaxPackedBits);
  config.seed = r.u64("seed");
  config.tie = r.count("tie", 1) == 0 ? hv::TiePolicy::kZero : hv::TiePolicy::kOne;
  config.missing_as_min = r.count("missing_as_min", 1) != 0;
  const std::uint64_t n_columns = r.count("column count", kMaxColumns);
  if (n_columns == 0) throw r.error("no columns");
  if (config.dimensions * n_columns > kMaxEncoderBits) {
    throw r.error("dimensions x column count out of range");
  }

  std::vector<ColumnEncoding> columns(n_columns);
  for (ColumnEncoding& column : columns) {
    const std::string kind = r.token("column kind");
    if (kind == "binary") {
      column.kind = data::ColumnKind::kBinary;
    } else if (kind == "categorical") {
      column.kind = data::ColumnKind::kCategorical;
    } else if (kind == "continuous") {
      column.kind = data::ColumnKind::kContinuous;
    } else {
      throw r.error("unknown column kind '" + kind + "'");
    }
    column.lo = r.finite_f64("column lo");
    column.hi = r.finite_f64("column hi");
    column.name = r.str("column name");
  }

  try {
    HdcFeatureExtractor extractor(config);
    extractor.fit_from_columns(std::move(columns));
    return extractor;
  } catch (const std::invalid_argument& e) {
    // Dimensions not a positive multiple of 4, or a column with lo > hi.
    throw r.error(e.what());
  }
}

}  // namespace hdc::core
