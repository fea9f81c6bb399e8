#include "data/chunked.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "data/synthetic.hpp"
#include "util/str.hpp"

namespace hdc::data {

std::vector<ChunkRange> make_shard_plan(std::size_t rows,
                                        std::size_t shard_rows) {
  std::vector<ChunkRange> plan;
  if (rows == 0) return plan;
  if (shard_rows == 0) shard_rows = rows;
  plan.reserve((rows + shard_rows - 1) / shard_rows);
  for (std::size_t begin = 0; begin < rows; begin += shard_rows) {
    plan.push_back(ChunkRange{begin, std::min(rows, begin + shard_rows)});
  }
  return plan;
}

void ChunkedDataset::check_range(std::size_t begin, std::size_t end,
                                 const char* who) const {
  if (begin > end || end > n_rows()) {
    throw std::out_of_range(std::string(who) + ": chunk [" +
                            std::to_string(begin) + ", " + std::to_string(end) +
                            ") out of range for " + std::to_string(n_rows()) +
                            " rows");
  }
}

Dataset InMemoryChunks::chunk(std::size_t begin, std::size_t end) const {
  check_range(begin, end, "InMemoryChunks");
  std::vector<std::size_t> indices(end - begin);
  std::iota(indices.begin(), indices.end(), begin);
  return ds_->subset(indices);
}

SyntheticCohortChunks::SyntheticCohortChunks(std::size_t rows,
                                             std::uint64_t seed)
    : rows_(rows), seed_(seed) {
  // An empty range still carries the column specs.
  columns_ = make_synthetic_cohort_range(0, 0, seed_).columns();
}

Dataset SyntheticCohortChunks::chunk(std::size_t begin, std::size_t end) const {
  check_range(begin, end, "SyntheticCohortChunks");
  return make_synthetic_cohort_range(begin, end, seed_);
}

CsvStreamChunks::CsvStreamChunks(std::string path, CsvOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("CsvStreamChunks: cannot open " + path_);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("CsvStreamChunks: empty input");
  }
  header_ = detail::parse_csv_header(line, options_, "CsvStreamChunks");

  // Prescan: validate every line, infer binary kinds incrementally, and
  // record each data row's byte offset so chunk() can seek straight to it.
  std::vector<bool> binary(header_.names.size() - 1, true);
  std::vector<double> row;
  std::size_t line_no = 1;
  for (;;) {
    const std::ifstream::pos_type pos = in.tellg();
    if (!std::getline(in, line)) break;
    ++line_no;
    if (util::trim(line).empty()) continue;
    (void)detail::parse_csv_row(line, header_, options_, line_no,
                                "CsvStreamChunks", row);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double v = row[j];
      if (!std::isnan(v) && v != 0.0 && v != 1.0) binary[j] = false;
    }
    offsets_.push_back(static_cast<std::uint64_t>(pos));
    lines_.push_back(line_no);
  }

  for (std::size_t j = 0; j < header_.names.size(); ++j) {
    if (j == header_.label_idx) continue;
    columns_.push_back(ColumnSpec{header_.names[j], ColumnKind::kContinuous});
  }
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    if (binary[j]) columns_[j].kind = ColumnKind::kBinary;
  }
}

Dataset CsvStreamChunks::chunk(std::size_t begin, std::size_t end) const {
  check_range(begin, end, "CsvStreamChunks");
  Dataset ds(columns_);
  if (begin == end) return ds;
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("CsvStreamChunks: cannot open " + path_);
  const auto vanished = [this](std::size_t i) {
    return std::runtime_error("CsvStreamChunks: line " +
                              std::to_string(lines_[i]) +
                              " vanished mid-stream in " + path_);
  };
  // A row that no longer starts where the prescan saw it means the file
  // changed underneath; parsing on would read shifted bytes.
  const auto moved = [this](std::size_t i) {
    return std::runtime_error("CsvStreamChunks: line " +
                              std::to_string(lines_[i]) + " of " + path_ +
                              " no longer starts at byte " +
                              std::to_string(offsets_[i]) +
                              " where the prescan found it");
  };
  // One seek, then the rows in file order: a seek per row would discard the
  // stream buffer and cost a fresh read() each. The seek lands on the
  // newline before the first row (the header line always precedes it), so
  // that row's start is checked like every other.
  in.seekg(static_cast<std::streamoff>(offsets_[begin] - 1));
  const int before = in.get();
  if (before == std::ifstream::traits_type::eof()) throw vanished(begin);
  if (before != '\n') throw moved(begin);
  std::uint64_t pos = offsets_[begin];
  std::string line;
  std::vector<double> row;
  for (std::size_t i = begin; i < end;) {
    const std::uint64_t at = pos;
    if (!std::getline(in, line)) throw vanished(i);
    pos += line.size() + 1;
    if (util::trim(line).empty()) continue;  // the prescan's blank-line rule
    if (at != offsets_[i]) throw moved(i);
    // Re-validates the cell count, so a file rewritten behind our back with
    // a different column count fails with the offending row's line number.
    const int label = detail::parse_csv_row(line, header_, options_, lines_[i],
                                            "CsvStreamChunks", row);
    ds.add_row(row, label);
    ++i;
  }
  return ds;
}

}  // namespace hdc::data
