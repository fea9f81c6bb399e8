// BitMatrix::from_rows: the 64x64 block transpose must produce exactly the
// planes of the per-bit scatter kept here as the oracle, for every row
// count around a block edge, every width around a word edge and every
// density, whichever pool spreads the blocks (one worker, four, or a call
// from inside a pool task, which runs inline); a matrix rebuilt in place
// through release_rows / assign_rows must match it too while the row count
// shrinks and grows; and rows whose padding bits are set must neither
// change the planes nor reach past them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "hv/sharded_bits.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using hdc::hv::BitMatrix;
using hdc::hv::PackedHVs;
using hdc::hv::ShardedBitMatrix;
using hdc::parallel::ThreadPool;

/// The reference transpose: one read-modify-write of a plane word per set
/// input bit. Column j's plane is words [j * wpc, (j + 1) * wpc).
std::vector<std::uint64_t> scatter_planes(const PackedHVs& rows) {
  const std::size_t wpc = (rows.rows() + 63) / 64;
  std::vector<std::uint64_t> planes(rows.bits() * wpc, 0ULL);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const std::uint64_t* row = rows.row(i);
    for (std::size_t w = 0; w < rows.words_per_row(); ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        planes[j * wpc + (i >> 6)] |= 1ULL << (i & 63);
        bits &= bits - 1;
      }
    }
  }
  return planes;
}

enum class Density { kZero, kRandom, kOne };

/// A clean input: padding bits past `bits` are zero.
PackedHVs make_rows(std::size_t rows, std::size_t bits, Density density,
                    std::uint64_t seed) {
  PackedHVs packed(bits, rows);
  hdc::util::Rng rng(seed);
  const std::uint64_t tail =
      bits % 64 == 0 ? ~0ULL : (1ULL << (bits % 64)) - 1ULL;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t* row = packed.row(i);
    for (std::size_t w = 0; w < packed.words_per_row(); ++w) {
      row[w] = density == Density::kZero  ? 0ULL
               : density == Density::kOne ? ~0ULL
                                          : rng();
    }
    if (packed.words_per_row() != 0) row[packed.words_per_row() - 1] &= tail;
  }
  return packed;
}

/// Splits `m` into three contiguous shards (sizes differ; none empty).
ShardedBitMatrix three_shards(const BitMatrix& m) {
  const std::size_t cuts[4] = {0, m.rows() / 5, m.rows() / 2, m.rows()};
  ShardedBitMatrix sharded;
  for (int s = 0; s < 3; ++s) {
    PackedHVs part(m.cols(), cuts[s + 1] - cuts[s]);
    for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
      std::memcpy(part.row(i - cuts[s]), m.row_bits(i),
                  m.words_per_row() * sizeof(std::uint64_t));
    }
    sharded.append_shard(BitMatrix::from_rows(std::move(part)));
  }
  return sharded;
}

/// `m` must hold exactly `copy`'s bits: planes equal to the scatter
/// oracle's with zero padding, per-column popcounts, and the mirror rows.
void expect_matches_oracle(const BitMatrix& m, const PackedHVs& copy) {
  const std::size_t rows = copy.rows();
  const std::size_t bits = copy.bits();
  const std::vector<std::uint64_t> expected = scatter_planes(copy);
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.cols(), bits);
  const std::size_t wpc = m.words_per_column();
  ASSERT_EQ(wpc, (rows + 63) / 64);
  const std::uint64_t pad = rows % 64 == 0 ? 0ULL : ~0ULL << (rows % 64);
  for (std::size_t j = 0; j < bits; ++j) {
    if (wpc != 0) {
      ASSERT_EQ(std::memcmp(m.column(j), expected.data() + j * wpc,
                            wpc * sizeof(std::uint64_t)),
                0)
          << "column " << j;
      ASSERT_EQ(m.column(j)[wpc - 1] & pad, 0u) << "column " << j;
    }
    std::size_t ones = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      ones += (copy.row(i)[j / 64] >> (j % 64)) & 1ULL;
    }
    ASSERT_EQ(m.column_popcount(j), ones) << "column " << j;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_EQ(std::memcmp(m.row_bits(i), copy.row(i),
                          copy.words_per_row() * sizeof(std::uint64_t)),
              0)
        << "mirror row " << i;
  }
  EXPECT_EQ(m.valid().rows(), rows);
  EXPECT_EQ(m.valid().count(), rows);
}

/// The whole oracle sweep, transposing over `pool` (nullptr = process-wide).
void check_from_rows_oracle(ThreadPool* pool) {
  const std::size_t row_counts[] = {0, 1, 2, 63, 64, 65, 127, 128, 1904, 4096};
  const std::size_t widths[] = {1, 63, 64, 65, 130, 10000};
  const Density densities[] = {Density::kZero, Density::kRandom, Density::kOne};
  std::uint64_t seed = 7;
  for (const std::size_t rows : row_counts) {
    for (const std::size_t bits : widths) {
      for (const Density density : densities) {
        SCOPED_TRACE(testing::Message()
                     << rows << " rows x " << bits << " bits, density "
                     << static_cast<int>(density));
        PackedHVs input = make_rows(rows, bits, density, ++seed);
        const PackedHVs copy = input;
        const BitMatrix m = BitMatrix::from_rows(std::move(input), pool);
        expect_matches_oracle(m, copy);
        if (testing::Test::HasFatalFailure()) return;

        if (rows >= 3) {
          ShardedBitMatrix whole;
          whole.append_shard(BitMatrix::from_rows(PackedHVs(copy), pool));
          EXPECT_EQ(three_shards(m).fingerprint(), whole.fingerprint());
        }
      }
    }
  }
}

TEST(BitMatrix, FromRowsMatchesScatterOracle) { check_from_rows_oracle(nullptr); }

TEST(BitMatrix, FromRowsMatchesScatterOracleOnOneWorker) {
  ThreadPool pool(1);
  check_from_rows_oracle(&pool);
}

TEST(BitMatrix, FromRowsMatchesScatterOracleOnFourWorkers) {
  ThreadPool pool(4);
  check_from_rows_oracle(&pool);
}

// Called from a worker of the pool it is handed, the transpose runs inline
// on that worker instead of waiting on its own pool.
TEST(BitMatrix, FromRowsMatchesScatterOracleInsidePoolTask) {
  ThreadPool pool(4);
  pool.submit([&pool] { check_from_rows_oracle(&pool); });
  pool.wait_idle();
}

// Rows out, refill, rows in: the rebuilt matrix equals the oracle at every
// size, and since a shrink keeps both buffers' capacity, growing back to the
// first size rebuilds into the very same words.
TEST(BitMatrix, AssignRowsRebuildsInPlaceShrinkingThenGrowing) {
  ThreadPool pool(4);
  constexpr std::size_t kBits = 10000;
  BitMatrix m;
  const std::uint64_t* first_planes = nullptr;
  const std::uint64_t* first_rows = nullptr;
  std::uint64_t seed = 41;
  for (const std::size_t rows : {4096u, 1904u, 4096u}) {
    SCOPED_TRACE(testing::Message() << rows << " rows");
    PackedHVs buffer = m.release_rows();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.resident_bytes(), 0u);
    const PackedHVs fresh = make_rows(rows, kBits, Density::kRandom, ++seed);
    buffer.reshape(kBits, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      std::memcpy(buffer.row(i), fresh.row(i),
                  fresh.words_per_row() * sizeof(std::uint64_t));
    }
    m.assign_rows(std::move(buffer), &pool);
    expect_matches_oracle(m, fresh);
    if (HasFatalFailure()) return;
    EXPECT_EQ(m.resident_bytes(),
              BitMatrix::from_rows(PackedHVs(fresh)).resident_bytes());
    if (first_planes == nullptr) {
      first_planes = m.column(0);
      first_rows = m.row_bits(0);
    } else {
      EXPECT_EQ(m.column(0), first_planes);
      EXPECT_EQ(m.row_bits(0), first_rows);
    }
  }
}

// PackedHVs::row() is writable, so a producer can leave bits set past
// bits(). They must not land in planes past cols() (a heap overflow under
// ASan) and must not differ between the two views.
TEST(BitMatrix, DirtyPaddingIsIgnored) {
  for (const std::size_t rows : {1, 2, 70}) {
    for (const std::size_t bits : {1, 100, 130}) {
      SCOPED_TRACE(testing::Message() << rows << " rows x " << bits << " bits");
      const PackedHVs clean = make_rows(rows, bits, Density::kRandom, rows + bits);
      PackedHVs dirty = clean;
      const std::size_t last = dirty.words_per_row() - 1;
      const std::uint64_t pad = ~0ULL << (bits % 64);
      for (std::size_t i = 0; i < rows; ++i) dirty.row(i)[last] |= pad;

      const BitMatrix expected = BitMatrix::from_rows(PackedHVs(clean));
      const BitMatrix m = BitMatrix::from_rows(std::move(dirty));
      ASSERT_EQ(m.cols(), bits);
      for (std::size_t j = 0; j < bits; ++j) {
        ASSERT_EQ(std::memcmp(m.column(j), expected.column(j),
                              m.words_per_column() * sizeof(std::uint64_t)),
                  0)
            << "column " << j;
      }
      for (std::size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(m.row_bits(i)[last] & pad, 0u) << "row " << i;
        EXPECT_EQ(m.row_bits(i)[last], clean.row(i)[last]) << "row " << i;
      }
    }
  }
}

TEST(BitMatrix, ResidentBytesCountsPlanesMirrorAndMask) {
  const BitMatrix m =
      BitMatrix::from_rows(make_rows(130, 100, Density::kRandom, 3));
  // 100 planes of 3 words, 130 rows of 2 words, a 3-word mask.
  EXPECT_EQ(m.resident_bytes(), (100 * 3 + 130 * 2 + 3) * sizeof(std::uint64_t));
  ShardedBitMatrix sharded = three_shards(m);
  std::size_t sum = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    sum += sharded.shard(s).resident_bytes();
  }
  EXPECT_EQ(sharded.resident_bytes(), sum);
}

}  // namespace
