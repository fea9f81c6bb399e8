// Token-stream serialization helpers for model persistence (core/bundle).
//
// A section body is whitespace-separated tokens: integers in decimal,
// doubles as their 16-hex-digit IEEE-754 bit pattern (exact round-trip, no
// locale / precision hazards), strings as a '~'-prefixed percent-escaped
// token. Bulk 64-bit word arrays (packed hypervectors) are binary word
// blocks instead: "<count> <fnv1a-hex16>", one '\n', then count × 8
// little-endian bytes, so they load as one copy. The Reader is strict:
// every token is validated in full (no silently ignored trailing
// characters), every block is checked against its count and checksum, and
// every failure throws std::runtime_error carrying the reader's context
// string and the field name, so a corrupted bundle produces a diagnostic
// instead of UB.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::util::serde {

/// FNV-1a 64-bit hash — the bundle's per-section checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// 16-lowercase-hex-digit rendering of a 64-bit value (fixed width).
[[nodiscard]] std::string hex16(std::uint64_t value);

/// Percent-escape bytes so the result is one whitespace-free token.
[[nodiscard]] std::string escape(std::string_view raw);
/// Inverse of escape(); throws std::runtime_error on malformed input.
[[nodiscard]] std::string unescape(std::string_view escaped);

/// Emits whitespace-separated tokens. nl() breaks lines for readability;
/// readers never depend on line structure.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  Writer& tag(std::string_view token);   // literal token (no whitespace)
  Writer& u64(std::uint64_t value);
  Writer& i64(std::int64_t value);
  Writer& f64(double value);             // hex16 of the bit pattern
  Writer& str(std::string_view value);   // '~' + escape(value)
  Writer& nl();

  /// Length-prefixed vectors: "<n> v0 v1 ...".
  Writer& vec_f64(std::span<const double> values);
  Writer& vec_int(std::span<const int> values);
  Writer& vec_u64(std::span<const std::uint64_t> values);
  /// Binary word block: "<count> <fnv1a-hex16>", one '\n', then the words
  /// as count × 8 little-endian bytes. The checksum covers those bytes, so
  /// the block is self-checking outside a bundle too.
  Writer& word_block(std::span<const std::uint64_t> values);

 private:
  void sep();

  std::ostream& out_;
  bool at_line_start_ = true;
};

/// Strict token reader; all failures throw std::runtime_error prefixed with
/// the context given at construction.
class Reader {
 public:
  Reader(std::istream& in, std::string context);

  /// Next token; throws on end of input.
  [[nodiscard]] std::string token(const char* what);
  /// Next token must equal `expected` exactly.
  void expect(std::string_view expected, const char* what);

  [[nodiscard]] std::uint64_t u64(const char* what);
  [[nodiscard]] std::int64_t i64(const char* what);
  [[nodiscard]] double f64(const char* what);
  /// f64 that must be finite: a NaN or ±Inf throws "non-finite <what>".
  [[nodiscard]] double finite_f64(const char* what);
  [[nodiscard]] std::string str(const char* what);
  /// Format version of a codec whose older bodies are not read: anything
  /// but `current` throws, asking for the artifact to be rebuilt.
  void expect_version(std::string_view current);
  /// u64 with an upper bound — guards container reserves against corrupted
  /// counts (throws instead of attempting a huge allocation).
  [[nodiscard]] std::uint64_t count(const char* what, std::uint64_t max);
  /// Strict hex16 word.
  [[nodiscard]] std::uint64_t word(const char* what);

  [[nodiscard]] std::vector<double> vec_f64(const char* what, std::uint64_t max);
  [[nodiscard]] std::vector<double> vec_finite_f64(const char* what, std::uint64_t max);
  /// Each value must fit an int.
  [[nodiscard]] std::vector<int> vec_int(const char* what, std::uint64_t max);
  [[nodiscard]] std::vector<std::uint64_t> vec_u64(const char* what, std::uint64_t max);
  /// Inverse of Writer::word_block, straight into `dst`: the block's count
  /// must equal dst.size() (checked before any byte is read), and a missing
  /// separator, a short read or a checksum mismatch throws.
  void word_block(const char* what, std::span<std::uint64_t> dst);

  /// Build (not throw) a contextualised error for callers' own checks.
  [[nodiscard]] std::runtime_error error(const std::string& message) const;

 private:
  std::istream& in_;
  std::string context_;
};

}  // namespace hdc::util::serde
