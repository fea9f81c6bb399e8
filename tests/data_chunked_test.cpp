// ChunkedDataset backends: shard plans, chunk-invariance of the in-memory /
// synthetic / streaming-CSV sources (including blank lines, CRLF endings and
// a last row without a newline), and the streaming reader's row-numbered
// rejection of files whose shape or row offsets change between prescan and
// chunk().
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/chunked.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"

namespace {

using hdc::data::ChunkRange;
using hdc::data::Dataset;
using hdc::data::make_shard_plan;

// Every value, label, and column of `chunk` must equal rows
// [begin, begin + chunk.n_rows()) of `whole`.
void expect_rows_equal(const Dataset& whole, const Dataset& chunk,
                       std::size_t begin) {
  ASSERT_EQ(chunk.n_cols(), whole.n_cols());
  for (std::size_t i = 0; i < chunk.n_rows(); ++i) {
    EXPECT_EQ(chunk.label(i), whole.label(begin + i));
    for (std::size_t j = 0; j < whole.n_cols(); ++j) {
      EXPECT_EQ(chunk.value(i, j), whole.value(begin + i, j))
          << "row " << begin + i << " col " << j;
    }
  }
}

TEST(ShardPlan, CoversRowsInAscendingOrder) {
  const std::vector<ChunkRange> plan = make_shard_plan(130, 64);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (ChunkRange{0, 64}));
  EXPECT_EQ(plan[1], (ChunkRange{64, 128}));
  EXPECT_EQ(plan[2], (ChunkRange{128, 130}));  // shorter tail
}

TEST(ShardPlan, ZeroShardRowsMeansOneShard) {
  const std::vector<ChunkRange> plan = make_shard_plan(77, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (ChunkRange{0, 77}));
}

TEST(ShardPlan, EmptyRowsYieldEmptyPlan) {
  EXPECT_TRUE(make_shard_plan(0, 64).empty());
  EXPECT_TRUE(make_shard_plan(0, 0).empty());
}

TEST(InMemoryChunks, ChunksEqualTheDatasetRowForRow) {
  const Dataset ds = hdc::data::make_synthetic_cohort(97, 3);
  const hdc::data::InMemoryChunks chunks(ds);
  EXPECT_EQ(chunks.n_rows(), ds.n_rows());
  for (const ChunkRange& range : make_shard_plan(ds.n_rows(), 31)) {
    const Dataset chunk = chunks.chunk(range.begin, range.end);
    ASSERT_EQ(chunk.n_rows(), range.rows());
    expect_rows_equal(ds, chunk, range.begin);
  }
}

TEST(SyntheticCohortChunks, AnyChunkingEqualsTheWholeCohort) {
  constexpr std::size_t kRows = 150;
  constexpr std::uint64_t kSeed = 11;
  const Dataset whole = hdc::data::make_synthetic_cohort(kRows, kSeed);
  const hdc::data::SyntheticCohortChunks chunks(kRows, kSeed);
  ASSERT_EQ(chunks.n_rows(), kRows);
  // Three different chunkings, including ragged word-boundary sizes.
  for (const std::size_t shard_rows : {64u, 65u, 127u}) {
    for (const ChunkRange& range : make_shard_plan(kRows, shard_rows)) {
      const Dataset chunk = chunks.chunk(range.begin, range.end);
      ASSERT_EQ(chunk.n_rows(), range.rows());
      expect_rows_equal(whole, chunk, range.begin);
    }
  }
}

TEST(SyntheticCohortChunks, RangeValidation) {
  const hdc::data::SyntheticCohortChunks chunks(10, 1);
  EXPECT_THROW((void)chunks.chunk(0, 11), std::out_of_range);
  EXPECT_THROW((void)chunks.chunk(5, 4), std::out_of_range);
}

class CsvStreamChunksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/stream_chunks.csv";
    std::ofstream out(path_);
    out << "age,bmi,smoker,label\n";
    for (int i = 0; i < 20; ++i) {
      out << 20 + i << "," << 18.5 + 0.25 * i << "," << i % 2 << ","
          << (i % 3 == 0 ? 1 : 0) << "\n";
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CsvStreamChunksTest, ChunksEqualReadCsvFile) {
  const Dataset whole = hdc::data::read_csv_file(path_);
  const hdc::data::CsvStreamChunks chunks(path_);
  ASSERT_EQ(chunks.n_rows(), whole.n_rows());
  ASSERT_EQ(chunks.columns().size(), whole.columns().size());
  for (std::size_t j = 0; j < whole.n_cols(); ++j) {
    EXPECT_EQ(chunks.columns()[j].name, whole.columns()[j].name);
    EXPECT_EQ(chunks.columns()[j].kind, whole.columns()[j].kind);
  }
  for (const ChunkRange& range : make_shard_plan(whole.n_rows(), 7)) {
    const Dataset chunk = chunks.chunk(range.begin, range.end);
    ASSERT_EQ(chunk.n_rows(), range.rows());
    expect_rows_equal(whole, chunk, range.begin);
  }
}

TEST_F(CsvStreamChunksTest, ChunkIsAPureFunctionOfTheRange) {
  const hdc::data::CsvStreamChunks chunks(path_);
  // Out-of-order and repeated requests return identical rows.
  const Dataset late = chunks.chunk(10, 20);
  const Dataset early = chunks.chunk(0, 10);
  const Dataset late_again = chunks.chunk(10, 20);
  expect_rows_equal(late, late_again, 0);
  const Dataset whole = chunks.chunk(0, 20);
  expect_rows_equal(whole, early, 0);
  expect_rows_equal(whole, late, 10);
}

TEST_F(CsvStreamChunksTest, PrescanRejectsColumnCountMismatchWithLineNumber) {
  {
    std::ofstream out(path_, std::ios::app);
    out << "61,31.0,1\n";  // one cell short, file line 22
  }
  try {
    const hdc::data::CsvStreamChunks chunks(path_);
    FAIL() << "prescan accepted a short row";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 22"), std::string::npos)
        << e.what();
  }
}

TEST_F(CsvStreamChunksTest, MidStreamRewriteFailsWithRowNumberedError) {
  const hdc::data::CsvStreamChunks chunks(path_);  // prescan sees 20 good rows
  // Rewrite the file between prescan and chunk(): same header, but data row
  // 16 (file line 17) now has an extra cell. chunk() re-validates from the
  // recorded offsets instead of trusting them.
  {
    std::ofstream out(path_);
    out << "age,bmi,smoker,label\n";
    for (int i = 0; i < 20; ++i) {
      if (i == 15) {
        out << 20 + i << "," << 18.5 + 0.25 * i << "," << i % 2 << ",0,9\n";
      } else {
        out << 20 + i << "," << 18.5 + 0.25 * i << "," << i % 2 << ","
            << (i % 3 == 0 ? 1 : 0) << "\n";
      }
    }
  }
  EXPECT_NO_THROW((void)chunks.chunk(0, 10));  // untouched rows still parse
  try {
    (void)chunks.chunk(10, 20);
    FAIL() << "chunk() accepted a mid-stream column-count change";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 17"), std::string::npos)
        << e.what();
  }
}

// Each layout must chunk exactly like read_csv_file at every split: blank
// lines are skipped by the same rule in both readers, and chunk() reads a
// range in file order from one seek.
TEST(CsvStreamChunks, AwkwardLayoutsChunkLikeReadCsvFile) {
  struct Layout {
    const char* name;
    std::string text;
  };
  std::string blank_lines = "age,bmi,smoker,label\n\n";
  std::string crlf = "age,bmi,smoker,label\r\n";
  std::string no_final_newline = "age,bmi,smoker,label\n";
  for (int i = 0; i < 11; ++i) {
    const std::string cells = std::to_string(20 + i) + "," +
                              std::to_string(18.5 + 0.25 * i) + "," +
                              std::to_string(i % 2) + "," +
                              std::to_string(i % 3 == 0 ? 1 : 0);
    blank_lines += cells + (i % 4 == 1 ? "\n\n \n" : "\n");
    crlf += cells + "\r\n";
    no_final_newline += cells + (i == 10 ? "" : "\n");
  }
  blank_lines += "\n\n";
  const Layout layouts[] = {{"blank lines", blank_lines},
                            {"CRLF", crlf},
                            {"no final newline", no_final_newline}};
  const std::string path = ::testing::TempDir() + "/stream_layouts.csv";
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    {
      std::ofstream out(path, std::ios::binary);
      out << layout.text;
    }
    const Dataset whole = hdc::data::read_csv_file(path);
    ASSERT_EQ(whole.n_rows(), 11u);
    const hdc::data::CsvStreamChunks chunks(path);
    ASSERT_EQ(chunks.n_rows(), whole.n_rows());
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                whole.n_rows()}) {
      SCOPED_TRACE(testing::Message() << "shard_rows " << k);
      for (const ChunkRange& range : make_shard_plan(whole.n_rows(), k)) {
        const Dataset chunk = chunks.chunk(range.begin, range.end);
        ASSERT_EQ(chunk.n_rows(), range.rows());
        expect_rows_equal(whole, chunk, range.begin);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(CsvStreamChunksTest, MidStreamShiftFailsWithRowNumberedError) {
  const hdc::data::CsvStreamChunks chunks(path_);  // prescan sees 20 good rows
  // Rewrite data row 2 (file line 3) with the same cell count but one byte
  // longer ("022"), then one byte shorter ("2"): every later row starts a
  // byte off its recorded offset. Shorter is the silent case for a reader
  // that seeks per row: the offset lands on the row's second byte, and
  // "0,20.5,0,0" parses as a well-formed row with the wrong age.
  for (const char* age2 : {"022", "2"}) {
    SCOPED_TRACE(age2);
    {
      std::ofstream out(path_);
      out << "age,bmi,smoker,label\n";
      for (int i = 0; i < 20; ++i) {
        if (i == 2) {
          out << age2;
        } else {
          out << 20 + i;
        }
        out << "," << 18.5 + 0.25 * i << "," << i % 2 << ","
            << (i % 3 == 0 ? 1 : 0) << "\n";
      }
    }
    EXPECT_NO_THROW((void)chunks.chunk(0, 3));  // rows before the shift
    try {
      (void)chunks.chunk(10, 20);
      FAIL() << "chunk() parsed rows that moved since the prescan";
    } catch (const std::runtime_error& e) {
      // Data row 10 is file line 12.
      EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CsvStreamChunksTest, MidStreamTruncationFailsInsteadOfMisaligning) {
  const hdc::data::CsvStreamChunks chunks(path_);
  {
    std::ofstream out(path_);  // truncate: only the header survives
    out << "age,bmi,smoker,label\n";
  }
  EXPECT_THROW((void)chunks.chunk(15, 20), std::runtime_error);
}

}  // namespace
