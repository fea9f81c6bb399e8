#include "hv/batch_encoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/timer.hpp"

namespace hdc::hv {

namespace {

/// Registry handles resolved once per process; recording is gated on
/// obs::enabled() so the disabled path costs one relaxed load per chunk.
struct EncodeMetrics {
  obs::Counter& rows = obs::counter("hv.encode.rows");
  obs::Counter& bits_set = obs::counter("hv.encode.bits_set");
  obs::Counter& chunks = obs::counter("hv.encode.chunks");
  obs::Histogram& chunk_seconds = obs::histogram("hv.encode.chunk_seconds");

  static EncodeMetrics& get() {
    static EncodeMetrics metrics;
    return metrics;
  }
};

std::size_t popcount_words(const std::uint64_t* words, std::size_t n) noexcept {
  return simd::active().popcount(words, n);
}

}  // namespace

std::vector<BitVector> BatchEncoder::encode_rows(std::size_t n_rows,
                                                 const RowFn& row_of) const {
  std::vector<BitVector> out(n_rows);
  parallel::parallel_for_chunks(
      0, n_rows,
      [&](std::size_t lo, std::size_t hi) {
        obs::Span span("hv.encode.chunk");
        const bool obs_on = obs::enabled();
        util::Timer timer;
        RecordEncoder::Scratch scratch;
        std::vector<double> row_scratch;
        std::size_t bits_set = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = encoder_->encode(row_of(i, row_scratch), scratch);
          if (obs_on) bits_set += out[i].popcount();
        }
        if (obs_on) {
          EncodeMetrics& metrics = EncodeMetrics::get();
          metrics.rows.add(hi - lo);
          metrics.bits_set.add(bits_set);
          metrics.chunks.increment();
          metrics.chunk_seconds.record(timer.seconds());
        }
      },
      options_.pool);
  return out;
}

std::vector<BitVector> BatchEncoder::encode_matrix(std::span<const double> values,
                                                   std::size_t n_cols) const {
  if (n_cols == 0 || values.size() % n_cols != 0) {
    throw std::invalid_argument("BatchEncoder: values not a whole number of rows");
  }
  return encode_rows(values.size() / n_cols, [values, n_cols](std::size_t i,
                                                              std::vector<double>&) {
    return values.subspan(i * n_cols, n_cols);
  });
}

PackedHVs BatchEncoder::encode_packed(std::size_t n_rows, const RowFn& row_of) const {
  PackedHVs out;
  fill_packed(n_rows, row_of, out);
  return out;
}

void BatchEncoder::fill_packed(std::size_t n_rows, const RowFn& row_of,
                               PackedHVs& out) const {
  out.reshape(bits(), n_rows);
  parallel::parallel_for_chunks(
      0, n_rows,
      [&](std::size_t lo, std::size_t hi) {
        obs::Span span("hv.encode.chunk");
        const bool obs_on = obs::enabled();
        util::Timer timer;
        RecordEncoder::Scratch scratch;
        std::vector<double> row_scratch;
        std::size_t bits_set = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          out.set_row(i, encoder_->encode(row_of(i, row_scratch), scratch));
          if (obs_on) bits_set += popcount_words(out.row(i), out.words_per_row());
        }
        if (obs_on) {
          EncodeMetrics& metrics = EncodeMetrics::get();
          metrics.rows.add(hi - lo);
          metrics.bits_set.add(bits_set);
          metrics.chunks.increment();
          metrics.chunk_seconds.record(timer.seconds());
        }
      },
      options_.pool);
}

BitMatrix BatchEncoder::encode_bits(std::size_t n_rows, const RowFn& row_of) const {
  BitMatrix out;
  encode_bits_into(n_rows, row_of, out);
  return out;
}

void BatchEncoder::encode_bits_into(std::size_t n_rows, const RowFn& row_of,
                                    BitMatrix& out) const {
  PackedHVs rows = out.release_rows();
  fill_packed(n_rows, row_of, rows);
  out.assign_rows(std::move(rows), options_.pool);
}

ShardedBitMatrix BatchEncoder::encode_bits_chunked(std::size_t n_rows,
                                                   std::size_t shard_rows,
                                                   const RowFn& row_of) const {
  if (shard_rows == 0) shard_rows = n_rows;
  ShardedBitMatrix out;
  for (std::size_t begin = 0; begin < n_rows; begin += shard_rows) {
    const std::size_t count = std::min(shard_rows, n_rows - begin);
    // Remap shard-local row i to global row begin + i: every row is encoded
    // by the same (row, encoder) pure function no matter the chunking.
    out.append_shard(encode_bits(
        count, [&row_of, begin](std::size_t i, std::vector<double>& scratch) {
          return row_of(begin + i, scratch);
        }));
  }
  return out;
}

}  // namespace hdc::hv
