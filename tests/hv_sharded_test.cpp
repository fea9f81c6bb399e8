// ShardedBitMatrix: the chunked encode must be byte-identical to the
// unsharded encode for every chunking (including ragged word-boundary shard
// sizes), and the fingerprint must be chunking-invariant but data-sensitive.
#include <gtest/gtest.h>

#include <cstring>

#include "core/extractor.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/sharded_bits.hpp"

namespace {

using hdc::hv::BitMatrix;
using hdc::hv::ShardedBitMatrix;

constexpr std::size_t kRows = 150;
constexpr std::size_t kDim = 96;

struct Encoded {
  hdc::data::Dataset ds;
  hdc::core::HdcFeatureExtractor extractor;
  BitMatrix whole;
};

hdc::core::ExtractorConfig test_config() {
  hdc::core::ExtractorConfig config;
  config.dimensions = kDim;
  config.seed = 42;
  return config;
}

const Encoded& encoded() {
  static const Encoded* cached = [] {
    auto* e = new Encoded{hdc::data::make_synthetic_cohort(kRows, 5),
                          hdc::core::HdcFeatureExtractor(test_config()),
                          BitMatrix()};
    e->extractor.fit(e->ds);
    e->whole = e->extractor.transform_bits(e->ds);
    return e;
  }();
  return *cached;
}

void expect_rows_match(const ShardedBitMatrix& sharded, const BitMatrix& whole) {
  ASSERT_EQ(sharded.rows(), whole.rows());
  ASSERT_EQ(sharded.cols(), whole.cols());
  const std::size_t words = whole.words_per_row();
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const BitMatrix& shard = sharded.shard(s);
    ASSERT_EQ(shard.words_per_row(), words);
    for (std::size_t i = 0; i < shard.rows(); ++i) {
      const std::size_t global = sharded.shard_begin(s) + i;
      EXPECT_EQ(std::memcmp(shard.row_bits(i), whole.row_bits(global),
                            words * sizeof(std::uint64_t)),
                0)
          << "shard " << s << " row " << i;
    }
  }
}

TEST(ShardedEncode, RaggedChunkingsAreByteIdentical) {
  const Encoded& e = encoded();
  // 64 = exact word boundary, 65 = one past it, 127 = one short of two.
  for (const std::size_t shard_rows : {64u, 65u, 127u}) {
    const ShardedBitMatrix sharded =
        e.extractor.transform_bits_chunked(e.ds, shard_rows);
    EXPECT_EQ(sharded.num_shards(), (kRows + shard_rows - 1) / shard_rows);
    expect_rows_match(sharded, e.whole);
  }
}

TEST(ShardedEncode, FingerprintIsChunkingInvariant) {
  const Encoded& e = encoded();
  const std::uint64_t single =
      e.extractor.transform_bits_chunked(e.ds, 0).fingerprint();
  for (const std::size_t shard_rows : {64u, 65u, 127u}) {
    EXPECT_EQ(
        e.extractor.transform_bits_chunked(e.ds, shard_rows).fingerprint(),
        single)
        << "shard_rows=" << shard_rows;
  }
}

TEST(ShardedEncode, FingerprintIsDataSensitive) {
  const Encoded& e = encoded();
  const hdc::data::Dataset other = hdc::data::make_synthetic_cohort(kRows, 6);
  const std::uint64_t base =
      e.extractor.transform_bits_chunked(e.ds, 64).fingerprint();
  EXPECT_NE(e.extractor.transform_bits_chunked(other, 64).fingerprint(), base);
  // Dropping one row changes it too (rows are part of the hash).
  const hdc::data::Dataset fewer =
      hdc::data::make_synthetic_cohort(kRows - 1, 5);
  EXPECT_NE(e.extractor.transform_bits_chunked(fewer, 64).fingerprint(), base);
}

TEST(ShardedEncode, ShardGeometry) {
  const Encoded& e = encoded();
  const ShardedBitMatrix sharded = e.extractor.transform_bits_chunked(e.ds, 64);
  ASSERT_EQ(sharded.num_shards(), 3u);  // 64 + 64 + 22
  EXPECT_EQ(sharded.shard_begin(0), 0u);
  EXPECT_EQ(sharded.shard_begin(1), 64u);
  EXPECT_EQ(sharded.shard_begin(2), 128u);
  EXPECT_EQ(sharded.shard_rows(2), kRows - 128);
}

}  // namespace
