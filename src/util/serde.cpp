#include "util/serde.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
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

constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// N FNV-1a chains over the same bytes, interleaved so their multiplies
/// overlap.
template <std::size_t N>
void fnv1a64_chains(std::string_view bytes, std::uint64_t* chains) noexcept {
  std::array<std::uint64_t, N> h;
  std::copy_n(chains, N, h.begin());
  for (const char c : bytes) {
    for (std::uint64_t& state : h) {
      state ^= static_cast<unsigned char>(c);
      state *= kFnv1a64Prime;
    }
  }
  std::copy_n(h.begin(), N, chains);
}

/// SectionSource's pull buffer for token bytes, and the largest piece
/// read_hashed() reads before hashing it (small enough to hash from cache).
constexpr std::uint64_t kSourceBufferBytes = std::uint64_t{64} << 10;
constexpr std::uint64_t kDirectChunkBytes = std::uint64_t{256} << 10;
constexpr std::size_t kSinkBufferBytes = std::size_t{4} << 10;

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = kFnv1a64Basis;
  fnv1a64_chains<1>(bytes, &hash);
  return hash;
}

void fnv1a64_update(std::string_view bytes, std::span<std::uint64_t> chains) noexcept {
  std::size_t c = 0;
  for (; c + 4 <= chains.size(); c += 4) fnv1a64_chains<4>(bytes, chains.data() + c);
  switch (chains.size() - c) {
    case 3: fnv1a64_chains<3>(bytes, chains.data() + c); break;
    case 2: fnv1a64_chains<2>(bytes, chains.data() + c); break;
    case 1: fnv1a64_chains<1>(bytes, chains.data() + c); break;
    default: break;
  }
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
  auto* const sink = dynamic_cast<SectionSink*>(out_.rdbuf());
  const std::uint64_t checksum =
      sink != nullptr ? sink->block_checksum(bytes) : fnv1a64(bytes);
  u64(values.size());
  sep();
  out_ << hex16(checksum) << '\n';
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

void Reader::expect_room(const char* what, std::uint64_t words) {
  const auto* const section = dynamic_cast<const SectionSource*>(in_.rdbuf());
  if (section != nullptr && words > section->remaining() / sizeof(std::uint64_t)) {
    throw error(std::string("word block for ") + what + " of " +
                std::to_string(words) + " words overruns its section (" +
                std::to_string(section->remaining()) + " bytes left)");
  }
}

void Reader::word_block(const char* what, std::span<std::uint64_t> dst,
                        std::uint64_t* chain) {
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
  char* const out = reinterpret_cast<char*>(dst.data());
  // The block's own chain, then the caller's.
  std::array<std::uint64_t, 2> chains = {kFnv1a64Basis, chain != nullptr ? *chain : 0};
  const std::span<std::uint64_t> active(chains.data(), chain != nullptr ? 2 : 1);
  std::streamsize got = 0;
  if (auto* const section = dynamic_cast<SectionSource*>(in_.rdbuf())) {
    // Straight from the file, one hash pass for the section and the block.
    got = section->read_hashed(out, bytes, active);
  } else {
    in_.read(out, bytes);
    got = in_.gcount();
    fnv1a64_update({out, static_cast<std::size_t>(got)}, active);
  }
  if (got != bytes) {
    throw fail("truncated (" + std::to_string(got) + " of " +
               std::to_string(bytes) + " bytes)");
  }
  const std::string actual = hex16(chains[0]);
  if (checksum != actual) {
    throw fail("checksum mismatch (header " + checksum + ", block " + actual + ")");
  }
  if (chain != nullptr) *chain = chains[1];
}

// -- SectionSource --------------------------------------------------------

SectionSource::SectionSource(std::streambuf& source, std::uint64_t bytes)
    : source_(source),
      unread_(bytes),
      buffer_(new char[std::clamp<std::uint64_t>(bytes, 1, kSourceBufferBytes)]) {
  setg(buffer_.get(), buffer_.get(), buffer_.get());
}

std::uint64_t SectionSource::remaining() const noexcept {
  return unread_ + static_cast<std::uint64_t>(egptr() - gptr());
}

SectionSource::int_type SectionSource::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (unread_ == 0 || truncated_) return traits_type::eof();
  const std::streamsize got = source_.sgetn(
      buffer_.get(),
      static_cast<std::streamsize>(std::min(unread_, kSourceBufferBytes)));
  if (got <= 0) {
    truncated_ = true;
    return traits_type::eof();
  }
  fnv1a64_update({buffer_.get(), static_cast<std::size_t>(got)}, {&hash_, 1});
  unread_ -= static_cast<std::uint64_t>(got);
  setg(buffer_.get(), buffer_.get(), buffer_.get() + got);
  return traits_type::to_int_type(*gptr());
}

std::streamsize SectionSource::read_hashed(char* dst, std::streamsize n,
                                           std::span<std::uint64_t> chains) {
  if (chains.size() > 3) {
    throw std::invalid_argument("SectionSource::read_hashed: at most three chains");
  }
  // Bytes already buffered are in the section chain; only `chains` take them.
  const std::streamsize buffered = std::min<std::streamsize>(n, egptr() - gptr());
  std::streamsize done = 0;
  if (buffered > 0) {
    std::memcpy(dst, gptr(), static_cast<std::size_t>(buffered));
    fnv1a64_update({dst, static_cast<std::size_t>(buffered)}, chains);
    gbump(static_cast<int>(buffered));
    done = buffered;
  }
  // The rest straight from the source into `dst`, one piece at a time so
  // the section chain and `chains` hash each piece while it is in cache.
  std::array<std::uint64_t, 4> all{};
  all[0] = hash_;
  std::copy(chains.begin(), chains.end(), all.begin() + 1);
  const std::span<std::uint64_t> fused(all.data(), chains.size() + 1);
  while (done < n && unread_ > 0 && !truncated_) {
    const std::uint64_t want = std::min(
        {static_cast<std::uint64_t>(n - done), unread_, kDirectChunkBytes});
    const std::streamsize got =
        source_.sgetn(dst + done, static_cast<std::streamsize>(want));
    if (got <= 0) {
      truncated_ = true;
      break;
    }
    fnv1a64_update({dst + done, static_cast<std::size_t>(got)}, fused);
    unread_ -= static_cast<std::uint64_t>(got);
    done += got;
  }
  hash_ = all[0];
  std::copy_n(all.begin() + 1, chains.size(), chains.begin());
  return done;
}

bool SectionSource::drain() {
  setg(buffer_.get(), buffer_.get(), buffer_.get());  // already hashed
  while (unread_ > 0 && !truncated_) {
    const std::streamsize got = source_.sgetn(
        buffer_.get(),
        static_cast<std::streamsize>(std::min(unread_, kSourceBufferBytes)));
    if (got <= 0) {
      truncated_ = true;
      break;
    }
    fnv1a64_update({buffer_.get(), static_cast<std::size_t>(got)}, {&hash_, 1});
    unread_ -= static_cast<std::uint64_t>(got);
  }
  return !truncated_;
}

// -- SectionSink ----------------------------------------------------------

SectionSink::SectionSink() : buffer_(new char[kSinkBufferBytes]) {
  setp(buffer_.get(), buffer_.get() + kSinkBufferBytes);
}

void SectionSink::write_to(std::streambuf& out) {
  flush_buffer();
  out_ = &out;
  bytes_ = 0;
  next_block_ = 0;
}

std::uint64_t SectionSink::bytes() const noexcept {
  return bytes_ + static_cast<std::uint64_t>(pptr() - pbase());
}

std::uint64_t SectionSink::block_checksum(std::string_view block) {
  if (out_ == nullptr) return block_checksums_.emplace_back(fnv1a64(block));
  if (next_block_ == block_checksums_.size()) {
    throw std::logic_error(
        "SectionSink: the writing pass has more word blocks than the measuring pass");
  }
  return block_checksums_[next_block_++];
}

bool SectionSink::emit(const char* s, std::size_t n) {
  bytes_ += n;
  if (out_ == nullptr) {
    fnv1a64_update({s, n}, {&hash_, 1});
    return true;
  }
  return out_->sputn(s, static_cast<std::streamsize>(n)) ==
         static_cast<std::streamsize>(n);
}

bool SectionSink::flush_buffer() {
  const auto pending = static_cast<std::size_t>(pptr() - pbase());
  setp(buffer_.get(), buffer_.get() + kSinkBufferBytes);
  return pending == 0 || emit(buffer_.get(), pending);
}

SectionSink::int_type SectionSink::overflow(int_type c) {
  if (!flush_buffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(c);
    pbump(1);
  }
  return traits_type::not_eof(c);
}

std::streamsize SectionSink::xsputn(const char* s, std::streamsize n) {
  if (n <= epptr() - pptr()) {
    std::memcpy(pptr(), s, static_cast<std::size_t>(n));
    pbump(static_cast<int>(n));
    return n;
  }
  if (!flush_buffer()) return 0;
  if (n < static_cast<std::streamsize>(kSinkBufferBytes)) {
    std::memcpy(pptr(), s, static_cast<std::size_t>(n));
    pbump(static_cast<int>(n));
    return n;
  }
  // A word block: hashed or forwarded in place, never copied.
  return emit(s, static_cast<std::size_t>(n)) ? n : 0;
}

int SectionSink::sync() { return flush_buffer() ? 0 : -1; }

}  // namespace hdc::util::serde
