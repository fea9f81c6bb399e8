// core::EncodingShardSource reloads: every shard() returns exactly the
// BitMatrix a fresh transform_bits of the same chunk gives (planes, mirror
// rows and validity mask), in any request order and across a short tail
// shard, while the reload rebuilds the previous shard's buffers in place
// and peak_resident_bytes() keeps counting one shard plus its dense chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/extractor.hpp"
#include "core/shard_source.hpp"
#include "data/chunked.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"

namespace {

using hdc::hv::BitMatrix;

constexpr std::size_t kRows = 10;
constexpr std::size_t kShardRows = 4;  // shards of 4, 4 and a 2-row tail
constexpr std::size_t kDim = 200;      // not a multiple of 64: padded rows

void expect_bytes_equal(const BitMatrix& got, const BitMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.words_per_column(), want.words_per_column());
  ASSERT_EQ(got.words_per_row(), want.words_per_row());
  for (std::size_t j = 0; j < want.cols(); ++j) {
    ASSERT_EQ(std::memcmp(got.column(j), want.column(j),
                          want.words_per_column() * sizeof(std::uint64_t)),
              0)
        << "plane " << j;
  }
  for (std::size_t i = 0; i < want.rows(); ++i) {
    ASSERT_EQ(std::memcmp(got.row_bits(i), want.row_bits(i),
                          want.words_per_row() * sizeof(std::uint64_t)),
              0)
        << "row " << i;
  }
  ASSERT_EQ(got.valid().rows(), want.valid().rows());
  ASSERT_EQ(got.valid().word_count(), want.valid().word_count());
  EXPECT_EQ(std::memcmp(got.valid().words(), want.valid().words(),
                        want.valid().word_count() * sizeof(std::uint64_t)),
            0);
  EXPECT_EQ(got.resident_bytes(), want.resident_bytes());
}

TEST(EncodingShardSource, ReloadsMatchFreshEncodesInAnyOrder) {
  const hdc::data::SyntheticCohortChunks chunks(kRows, 5);
  hdc::core::ExtractorConfig config;
  config.dimensions = kDim;
  config.seed = 3;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(chunks.chunk(0, kRows));

  const hdc::core::EncodingShardSource source(chunks, extractor, kShardRows);
  ASSERT_EQ(source.num_shards(), 3u);

  std::size_t expected_peak = 0;
  const std::uint64_t* first_rows = nullptr;
  for (const std::size_t s : {0u, 1u, 0u, 2u, 2u, 1u, 0u}) {
    SCOPED_TRACE(testing::Message() << "shard " << s);
    const std::size_t begin = source.shard_begin(s);
    const std::size_t end = std::min(kRows, begin + kShardRows);
    const hdc::data::Dataset chunk = chunks.chunk(begin, end);
    const BitMatrix fresh = extractor.transform_bits(chunk);

    const BitMatrix& got = source.shard(s);
    expect_bytes_equal(got, fresh);
    if (HasFatalFailure()) return;

    // The same accounting as a load into fresh buffers: the shard's
    // matrix plus the dense chunk (8-byte values + a 4-byte label a row).
    expected_peak = std::max(expected_peak,
                             fresh.resident_bytes() +
                                 chunk.n_rows() * (chunk.n_cols() * 8 + 4));
    EXPECT_EQ(source.peak_resident_bytes(), expected_peak);

    // Every reload, the short tail included, is encoded into the row
    // buffer the first load mapped.
    if (first_rows == nullptr) first_rows = got.row_bits(0);
    EXPECT_EQ(got.row_bits(0), first_rows);
  }
}

}  // namespace
