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
//
// SectionSource and SectionSink are the stream buffers core/bundle runs a
// section's codec through: the source bounds and hashes what a parser
// reads straight from the file, the sink measures a section before it is
// written straight to the file. Reader::word_block and Writer::word_block
// recognise them and hash each block's bytes in the same pass as the
// section's (see DESIGN §7.5).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::util::serde {

/// FNV-1a 64 offset basis: the state of a chain that has hashed no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash — the bundle's per-section checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Advance every FNV-1a 64 state in `chains` over `bytes` in one pass.
/// FNV-1a is bound by its multiply's latency, so up to four interleaved
/// chains cost about what one does.
void fnv1a64_update(std::string_view bytes, std::span<std::uint64_t> chains) noexcept;

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
  /// separator, a short read or a checksum mismatch throws. A non-null
  /// `chain` is an FNV-1a 64 state carried over the block's bytes in the
  /// same pass (the ANN database fingerprint of hv::read_packed).
  void word_block(const char* what, std::span<std::uint64_t> dst,
                  std::uint64_t* chain = nullptr);
  /// Throws unless `words` more words can still follow. Only a
  /// SectionSource knows how many bytes its section has left; on any other
  /// stream this checks nothing. Called before a word block's destination
  /// is sized, so a corrupted count cannot allocate past its section.
  void expect_room(const char* what, std::uint64_t words);

  /// Build (not throw) a contextualised error for callers' own checks.
  [[nodiscard]] std::runtime_error error(const std::string& message) const;

 private:
  std::istream& in_;
  std::string context_;
};

/// Input buffer over one bundle section: at most `bytes` bytes of
/// `source`, each FNV-1a 64 hashed once as it is pulled. A parser reads the
/// section straight from it; the loader then drain()s whatever the parser
/// left and compares checksum() with the section header. Bytes are only
/// pulled from `source` on demand, so `source` stops exactly at the
/// section's end, and a short source is reported by drain(), never
/// assumed from one short read.
class SectionSource final : public std::streambuf {
 public:
  SectionSource(std::streambuf& source, std::uint64_t bytes);

  /// Section bytes not yet handed to the reader.
  [[nodiscard]] std::uint64_t remaining() const noexcept;
  /// Pull and hash the rest of the section; false when the source ends
  /// first.
  [[nodiscard]] bool drain();
  /// FNV-1a 64 of the section bytes pulled so far (all of them after a
  /// successful drain()).
  [[nodiscard]] std::uint64_t checksum() const noexcept { return hash_; }

  /// Read up to `n` bytes into `dst` (straight from the source once the
  /// buffered bytes are used up) and advance `chains` over them in the same
  /// pass as the section's own chain (at most three `chains`). Returns the
  /// bytes read: fewer than `n` only at the section's end or when the
  /// source ran out.
  std::streamsize read_hashed(char* dst, std::streamsize n,
                              std::span<std::uint64_t> chains);

 protected:
  int_type underflow() override;

 private:
  std::streambuf& source_;
  std::uint64_t unread_;  // section bytes still in source_
  std::uint64_t hash_ = kFnv1a64Basis;
  bool truncated_ = false;
  std::unique_ptr<char[]> buffer_;
};

/// Output buffer for one bundle section, which the saver serializes twice.
/// Fresh, it measures: it counts and FNV-1a 64 hashes every byte, and
/// computes each word block's checksum for Writer::word_block, keeping it.
/// After write_to(out) it forwards every byte to `out`, counts them again,
/// and hands the kept block checksums back in order, so the second pass
/// hashes nothing.
class SectionSink final : public std::streambuf {
 public:
  SectionSink();

  /// Switch from measuring to writing into `out`; the byte count restarts.
  void write_to(std::streambuf& out);
  /// Bytes received so far, the buffered ones included.
  [[nodiscard]] std::uint64_t bytes() const noexcept;
  /// FNV-1a 64 of the measured bytes (after a pubsync()).
  [[nodiscard]] std::uint64_t checksum() const noexcept { return hash_; }
  /// Checksum of a word block's bytes: computed while measuring, replayed
  /// while writing (std::logic_error if the writing pass asks for more
  /// blocks than the measuring pass wrote).
  [[nodiscard]] std::uint64_t block_checksum(std::string_view block);

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  bool emit(const char* s, std::size_t n);
  bool flush_buffer();

  std::streambuf* out_ = nullptr;  // null while measuring
  std::uint64_t bytes_ = 0;        // emitted (past the buffer)
  std::uint64_t hash_ = kFnv1a64Basis;
  std::vector<std::uint64_t> block_checksums_;
  std::size_t next_block_ = 0;
  std::unique_ptr<char[]> buffer_;
};

}  // namespace hdc::util::serde
