#include "core/serialize.hpp"

#include <sstream>
#include <stdexcept>

#include "util/serde.hpp"
#include "util/str.hpp"

namespace hdc::core {

namespace {

constexpr const char* kExtractorMagic = "hdc-extractor v1";
constexpr const char* kHammingMagic = "hdc-hamming v2";

std::string expect_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string("load: unexpected end of input at ") + what);
  }
  return std::string(util::trim(line));
}

long long expect_int(std::istream& in, const char* what) {
  const auto value = util::parse_int(expect_line(in, what));
  if (!value) throw std::runtime_error(std::string("load: bad integer for ") + what);
  return *value;
}

/// Hard cap on persisted hypervector width: well above any configuration we
/// ship (paper uses 1k-10k dimensions) and small enough that a corrupted
/// size field cannot trigger a giant allocation.
constexpr std::size_t kMaxBitvectorBits = 1ULL << 26;

/// Exactly 16 lowercase hex digits -> word; anything else (odd-length hex,
/// uppercase, stray characters) throws.
std::uint64_t parse_hex16_word(const std::string& tok) {
  if (tok.size() != 16) {
    throw std::runtime_error("load: bad bitvector word '" + tok +
                             "': expected exactly 16 hex digits");
  }
  std::uint64_t word = 0;
  for (const char c : tok) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    if (digit < 0) {
      throw std::runtime_error("load: bad bitvector word '" + tok + "'");
    }
    word = (word << 4) | static_cast<std::uint64_t>(digit);
  }
  return word;
}

const char* kind_name(data::ColumnKind kind) {
  switch (kind) {
    case data::ColumnKind::kBinary: return "binary";
    case data::ColumnKind::kCategorical: return "categorical";
    default: return "continuous";
  }
}

data::ColumnKind parse_kind(std::string_view name) {
  if (name == "binary") return data::ColumnKind::kBinary;
  if (name == "categorical") return data::ColumnKind::kCategorical;
  if (name == "continuous") return data::ColumnKind::kContinuous;
  throw std::runtime_error("load: unknown column kind '" + std::string(name) + "'");
}

}  // namespace

void write_bitvector(std::ostream& out, const hv::BitVector& vector) {
  out << vector.size();
  // Fixed-width words: every token is exactly 16 lowercase hex digits, so
  // the reader can reject odd-length / truncated hex instead of guessing.
  for (const std::uint64_t word : vector.words()) {
    out << ' ' << util::serde::hex16(word);
  }
  out << '\n';
}

hv::BitVector read_bitvector(std::istream& in) {
  const std::string line = expect_line(in, "bitvector");
  std::istringstream tokens(line);
  std::string tok;
  if (!(tokens >> tok)) throw std::runtime_error("load: bad bitvector size");
  const auto parsed_bits = util::parse_int(tok);
  if (!parsed_bits || *parsed_bits < 0) {
    throw std::runtime_error("load: bad bitvector size '" + tok + "'");
  }
  const auto bits = static_cast<std::size_t>(*parsed_bits);
  if (bits > kMaxBitvectorBits) {
    throw std::runtime_error("load: bitvector size out of range");
  }
  hv::BitVector out(bits);
  const std::size_t n_words = (bits + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    if (!(tokens >> tok)) throw std::runtime_error("load: truncated bitvector");
    const std::uint64_t word = parse_hex16_word(tok);
    if (w + 1 == n_words && bits % 64 != 0 &&
        (word & (~0ULL << (bits % 64))) != 0) {
      throw std::runtime_error("load: nonzero padding bits in bitvector");
    }
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t bit = w * 64 + b;
      if (bit < bits && ((word >> b) & 1ULL)) out.set(bit, true);
    }
  }
  if (tokens >> tok) {
    throw std::runtime_error("load: trailing data after bitvector");
  }
  return out;
}

void save_extractor(std::ostream& out, const HdcFeatureExtractor& extractor) {
  if (!extractor.fitted()) {
    throw std::invalid_argument("save_extractor: extractor is not fitted");
  }
  const ExtractorConfig& config = extractor.config();
  out << kExtractorMagic << '\n';
  out << config.dimensions << '\n';
  out << config.seed << '\n';
  out << (config.tie == hv::TiePolicy::kZero ? 0 : 1) << '\n';
  out << (config.missing_as_min ? 1 : 0) << '\n';
  const auto& columns = extractor.column_encodings();
  out << columns.size() << '\n';
  for (const ColumnEncoding& column : columns) {
    // name may contain spaces; keep it last on its own line.
    out << kind_name(column.kind) << ' ' << util::format_double(column.lo, 17) << ' '
        << util::format_double(column.hi, 17) << ' ' << column.name << '\n';
  }
}

HdcFeatureExtractor load_extractor(std::istream& in) {
  if (expect_line(in, "magic") != kExtractorMagic) {
    throw std::runtime_error("load_extractor: bad magic");
  }
  ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(expect_int(in, "dimensions"));
  config.seed = static_cast<std::uint64_t>(expect_int(in, "seed"));
  config.tie = expect_int(in, "tie") == 0 ? hv::TiePolicy::kZero : hv::TiePolicy::kOne;
  config.missing_as_min = expect_int(in, "missing_as_min") != 0;
  const long long n_columns = expect_int(in, "column count");
  if (n_columns <= 0) throw std::runtime_error("load_extractor: no columns");

  std::vector<ColumnEncoding> columns;
  columns.reserve(static_cast<std::size_t>(n_columns));
  for (long long j = 0; j < n_columns; ++j) {
    const std::string line = expect_line(in, "column");
    std::istringstream tokens(line);
    std::string kind;
    double lo = 0.0;
    double hi = 0.0;
    if (!(tokens >> kind >> lo >> hi)) {
      throw std::runtime_error("load_extractor: bad column line '" + line + "'");
    }
    std::string name;
    std::getline(tokens, name);
    ColumnEncoding column;
    column.kind = parse_kind(kind);
    column.lo = lo;
    column.hi = hi;
    column.name = std::string(util::trim(name));
    columns.push_back(std::move(column));
  }

  HdcFeatureExtractor extractor(config);
  extractor.fit_from_columns(std::move(columns));
  return extractor;
}

void save_hamming(std::ostream& out, const HammingClassifier& model) {
  if (!model.fitted()) {
    throw std::invalid_argument("save_hamming: model is not fitted");
  }
  out << kHammingMagic << '\n';
  out << (model.mode() == HammingMode::kPrototype ? "prototype" : "nearest") << '\n';
  const auto& vectors = model.training_vectors();
  const auto& labels = model.training_labels();
  out << vectors.size() << '\n';
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    out << labels[i] << '\n';
    write_bitvector(out, vectors[i]);
  }
}

HammingClassifier load_hamming(std::istream& in) {
  if (expect_line(in, "magic") != kHammingMagic) {
    throw std::runtime_error("load_hamming: bad magic");
  }
  const std::string mode_name = expect_line(in, "mode");
  HammingMode mode = HammingMode::kNearestNeighbor;
  if (mode_name == "prototype") {
    mode = HammingMode::kPrototype;
  } else if (mode_name != "nearest") {
    throw std::runtime_error("load_hamming: unknown mode '" + mode_name + "'");
  }
  const long long count = expect_int(in, "vector count");
  if (count <= 0) throw std::runtime_error("load_hamming: empty model");
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  vectors.reserve(static_cast<std::size_t>(count));
  labels.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    labels.push_back(static_cast<int>(expect_int(in, "label")));
    vectors.push_back(read_bitvector(in));
  }
  HammingClassifier model(mode);
  model.fit(std::move(vectors), std::move(labels));
  return model;
}

}  // namespace hdc::core
