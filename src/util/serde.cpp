#include "util/serde.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace hdc::util::serde {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

[[nodiscard]] int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // uppercase is rejected on purpose: one canonical spelling
}

[[nodiscard]] bool needs_escape(unsigned char c) noexcept {
  return c <= 0x20 || c == '%' || c == '~' || c >= 0x7f;
}

// Word blocks are the words' own bytes; the format fixes little-endian.
static_assert(std::endian::native == std::endian::little,
              "serde word blocks assume a little-endian host");

[[nodiscard]] std::string_view block_bytes(std::span<const std::uint64_t> words) noexcept {
  return {reinterpret_cast<const char*>(words.data()), words.size_bytes()};
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out.push_back('%');
      out.push_back(kHexDigits[u >> 4]);
      out.push_back(kHexDigits[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string unescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    if (i + 2 >= escaped.size()) {
      throw std::runtime_error("serde: dangling percent escape");
    }
    const int hi = hex_value(escaped[i + 1]);
    const int lo = hex_value(escaped[i + 2]);
    if (hi < 0 || lo < 0) {
      throw std::runtime_error("serde: bad percent escape");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

// -- Writer -------------------------------------------------------------

void Writer::sep() {
  if (!at_line_start_) out_ << ' ';
  at_line_start_ = false;
}

Writer& Writer::tag(std::string_view token) {
  sep();
  out_ << token;
  return *this;
}

Writer& Writer::u64(std::uint64_t value) {
  sep();
  out_ << value;
  return *this;
}

Writer& Writer::i64(std::int64_t value) {
  sep();
  out_ << value;
  return *this;
}

Writer& Writer::f64(double value) {
  sep();
  out_ << hex16(std::bit_cast<std::uint64_t>(value));
  return *this;
}

Writer& Writer::str(std::string_view value) {
  sep();
  out_ << '~' << escape(value);
  return *this;
}

Writer& Writer::nl() {
  out_ << '\n';
  at_line_start_ = true;
  return *this;
}

Writer& Writer::vec_f64(std::span<const double> values) {
  u64(values.size());
  for (const double v : values) f64(v);
  return *this;
}

Writer& Writer::vec_int(std::span<const int> values) {
  u64(values.size());
  for (const int v : values) i64(v);
  return *this;
}

Writer& Writer::vec_u64(std::span<const std::uint64_t> values) {
  u64(values.size());
  for (const std::uint64_t v : values) u64(v);
  return *this;
}

Writer& Writer::word_block(std::span<const std::uint64_t> values) {
  const std::string_view bytes = block_bytes(values);
  u64(values.size());
  sep();
  out_ << hex16(fnv1a64(bytes)) << '\n';
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return *this;
}

// -- Reader -------------------------------------------------------------

Reader::Reader(std::istream& in, std::string context)
    : in_(in), context_(std::move(context)) {}

std::runtime_error Reader::error(const std::string& message) const {
  return std::runtime_error(context_ + ": " + message);
}

std::string Reader::token(const char* what) {
  std::string tok;
  if (!(in_ >> tok)) {
    throw error(std::string("unexpected end of input at ") + what);
  }
  return tok;
}

void Reader::expect(std::string_view expected, const char* what) {
  const std::string tok = token(what);
  if (tok != expected) {
    throw error(std::string("expected '") + std::string(expected) + "' for " + what +
                ", got '" + tok + "'");
  }
}

std::uint64_t Reader::u64(const char* what) {
  const std::string tok = token(what);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value, 10);
  if (ec != std::errc() || ptr != tok.data() + tok.size()) {
    throw error(std::string("bad integer for ") + what + " ('" + tok + "')");
  }
  return value;
}

std::int64_t Reader::i64(const char* what) {
  const std::string tok = token(what);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value, 10);
  if (ec != std::errc() || ptr != tok.data() + tok.size()) {
    throw error(std::string("bad signed integer for ") + what + " ('" + tok + "')");
  }
  return value;
}

void Reader::expect_version(std::string_view current) {
  const std::string tok = token("format version");
  if (tok != current) {
    throw error("format version '" + tok + "' is not read by this build (it reads '" +
                std::string(current) + "'); re-run `hdc_cli bundle` to rebuild the artifact");
  }
}

std::uint64_t Reader::word(const char* what) {
  const std::string tok = token(what);
  if (tok.size() != 16) {
    throw error(std::string("bad hex word for ") + what + " ('" + tok +
                "'): expected exactly 16 hex digits");
  }
  std::uint64_t value = 0;
  for (const char c : tok) {
    const int digit = hex_value(c);
    if (digit < 0) {
      throw error(std::string("bad hex word for ") + what + " ('" + tok + "')");
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

double Reader::f64(const char* what) {
  return std::bit_cast<double>(word(what));
}

double Reader::finite_f64(const char* what) {
  const double value = f64(what);
  if (!std::isfinite(value)) throw error(std::string("non-finite ") + what);
  return value;
}

std::string Reader::str(const char* what) {
  const std::string tok = token(what);
  if (tok.empty() || tok.front() != '~') {
    throw error(std::string("bad string token for ") + what + " ('" + tok + "')");
  }
  try {
    return unescape(std::string_view(tok).substr(1));
  } catch (const std::runtime_error& e) {
    throw error(std::string("bad string token for ") + what + ": " + e.what());
  }
}

std::uint64_t Reader::count(const char* what, std::uint64_t max) {
  const std::uint64_t value = u64(what);
  if (value > max) {
    throw error(std::string("count for ") + what + " out of range (" +
                std::to_string(value) + " > " + std::to_string(max) + ")");
  }
  return value;
}

std::vector<double> Reader::vec_f64(const char* what, std::uint64_t max) {
  const std::uint64_t n = count(what, max);
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64(what));
  return out;
}

std::vector<double> Reader::vec_finite_f64(const char* what, std::uint64_t max) {
  const std::uint64_t n = count(what, max);
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(finite_f64(what));
  return out;
}

std::vector<int> Reader::vec_int(const char* what, std::uint64_t max) {
  const std::uint64_t n = count(what, max);
  std::vector<int> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t value = i64(what);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      throw error(std::string("int out of range for ") + what);
    }
    out.push_back(static_cast<int>(value));
  }
  return out;
}

std::vector<std::uint64_t> Reader::vec_u64(const char* what, std::uint64_t max) {
  const std::uint64_t n = count(what, max);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(u64(what));
  return out;
}

void Reader::word_block(const char* what, std::span<std::uint64_t> dst) {
  const auto fail = [&](const std::string& message) {
    return error(std::string("word block for ") + what + " " + message);
  };
  const std::uint64_t n = count(what, dst.size());
  if (n != dst.size()) {
    throw fail("has " + std::to_string(n) + " words, expected " +
               std::to_string(dst.size()));
  }
  const std::string checksum = token(what);
  // Not echoed when malformed: it may have run on into the words.
  if (checksum.size() != 16) throw fail("has a malformed checksum");
  if (in_.get() != '\n') throw fail("lacks its '\\n' separator");
  const auto bytes = static_cast<std::streamsize>(dst.size_bytes());
  in_.read(reinterpret_cast<char*>(dst.data()), bytes);
  if (in_.gcount() != bytes) {
    throw fail("truncated (" + std::to_string(in_.gcount()) + " of " +
               std::to_string(bytes) + " bytes)");
  }
  const std::string actual = hex16(fnv1a64(block_bytes(dst)));
  if (checksum != actual) {
    throw fail("checksum mismatch (header " + checksum + ", block " + actual + ")");
  }
}

}  // namespace hdc::util::serde
