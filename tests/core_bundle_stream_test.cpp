// Streamed bundle I/O. load_bundle parses each section straight from the
// input through a bounded, hashing util::serde::SectionSource and checks the
// section's checksum only at its end; save_bundle measures each section into
// a util::serde::SectionSink and then serializes it again straight into the
// output. Parsers therefore see a section's bytes before they are verified.
// These cases attack that order: byte counts that overrun the file, damage
// that only the section checksum can see, parsers that stop early, sources
// that hand out a few bytes at a time. Each must give the diagnosis the
// checksum-first loader gave, and never a bundle built from bad bytes.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "hv/search.hpp"
#include "ml/zoo.hpp"
#include "util/serde.hpp"

namespace {

using hdc::core::load_bundle;
using hdc::core::ModelBundle;
using hdc::core::save_bundle;
namespace serde = hdc::util::serde;

/// Extractor + hamming rows + ANN index + one zoo model, saved once.
const std::string& golden() {
  static const std::string artifact = [] {
    const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
    hdc::core::ExtractorConfig config;
    config.dimensions = 256;
    config.seed = 7;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(ds);
    hdc::core::HammingClassifier hamming;
    hamming.fit(bundle.extractor->transform(ds), ds.labels());
    hamming.enable_ann();
    bundle.hamming = std::move(hamming);
    auto model = hdc::ml::make_model("Logistic Regression", 0.2);
    model->fit_bits(bundle.extractor->transform_bits(ds), ds.labels());
    bundle.models.push_back(std::move(model));
    std::ostringstream out;
    save_bundle(out, bundle);
    return out.str();
  }();
  return artifact;
}

std::string resave(const ModelBundle& bundle) {
  std::ostringstream out;
  save_bundle(out, bundle);
  return out.str();
}

/// Where one section sits in a bundle: its header line and its body.
struct SectionSpan {
  std::size_t header_at = 0;
  std::size_t body_at = 0;
  std::size_t bytes = 0;
};

SectionSpan find_section(const std::string& artifact, const std::string& name) {
  const std::size_t at = artifact.find("section ~" + serde::escape(name) + " ");
  EXPECT_NE(at, std::string::npos) << name;
  std::istringstream header(artifact.substr(at, artifact.find('\n', at) - at));
  std::string keyword;
  std::string token;
  SectionSpan span;
  header >> keyword >> token >> span.bytes;
  span.header_at = at;
  span.body_at = artifact.find('\n', at) + 1;
  return span;
}

/// The load must throw a std::runtime_error whose message holds `needle`.
void expect_load_error(const std::string& artifact, const std::string& needle) {
  std::istringstream in(artifact);
  ModelBundle loaded;
  try {
    loaded = load_bundle(in);
    ADD_FAILURE() << "loaded; expected an error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
  // Nothing was committed to the caller's bundle.
  EXPECT_FALSE(loaded.extractor || loaded.hamming || loaded.nn || loaded.manifest);
  EXPECT_TRUE(loaded.models.empty());
}

/// Replace the byte count in the header of section `name`.
std::string with_byte_count(std::string artifact, const std::string& name,
                            std::uint64_t bytes) {
  const SectionSpan span = find_section(artifact, name);
  const std::size_t count_at = artifact.find(' ', span.header_at + 9) + 1;
  const std::size_t count_end = artifact.find(' ', count_at);
  return artifact.replace(count_at, count_end - count_at, std::to_string(bytes));
}

/// streambuf over a string that hands out at most `step` bytes per call,
/// as a pipe or a slow file may: a reader that takes one short read for
/// the end of its input misreads it.
class TrickleBuf final : public std::streambuf {
 public:
  TrickleBuf(std::string data, std::size_t step) : data_(std::move(data)), step_(step) {}

 protected:
  int_type underflow() override {
    if (pos_ == data_.size()) return traits_type::eof();
    const std::size_t n = std::min(step_, data_.size() - pos_);
    char* base = data_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*gptr());
  }
  std::streamsize xsgetn(char* dst, std::streamsize n) override {
    // Whatever is buffered, else one more step: never the whole request.
    if (gptr() == egptr() && traits_type::eq_int_type(underflow(), traits_type::eof())) {
      return 0;
    }
    const std::streamsize got = std::min<std::streamsize>(n, egptr() - gptr());
    std::copy_n(gptr(), got, dst);
    gbump(static_cast<int>(got));
    return got;
  }

 private:
  std::string data_;
  std::size_t step_;
  std::size_t pos_ = 0;
};

TEST(BundleStream, SectionByteCountLongerThanTheFile) {
  // The last section claims more bytes than follow it, and a middle
  // section claims the rest of the file and more.
  const std::string& full = golden();
  const SectionSpan model = find_section(full, "model:Logistic Regression");
  expect_load_error(with_byte_count(full, "model:Logistic Regression", model.bytes + 100),
                    "section 'model:Logistic Regression' truncated");
  const SectionSpan hamming = find_section(full, "hamming");
  expect_load_error(with_byte_count(full, "hamming", full.size() - hamming.body_at + 1),
                    "section 'hamming' truncated");
}

TEST(BundleStream, GigabyteHeaderOverAShortFileIsTruncation) {
  // 2^30 bytes is the largest count the loader accepts; the file holds a
  // few kilobytes. The loader reads what is there and reports truncation.
  expect_load_error(with_byte_count(golden(), "extractor", std::uint64_t{1} << 30),
                    "section 'extractor' truncated");
  expect_load_error(with_byte_count(golden(), "hamming", std::uint64_t{1} << 30),
                    "section 'hamming' truncated");
}

TEST(BundleStream, FlipInTheLastHammingWordFoundAtTheSectionEnd) {
  // Flip a byte of the last word of the hamming block and re-sign the
  // block, so the block checksum holds and the section parses: only the
  // section checksum, checked after the parse, sees the damage.
  std::string artifact = golden();
  const SectionSpan span = find_section(artifact, "hamming");
  const hdc::core::HammingClassifier reloaded = [&] {
    std::istringstream in(artifact.substr(span.body_at, span.bytes));
    return hdc::core::HammingClassifier::load(in);
  }();
  // The words end the body but for one '\n'; the line before them is
  // "<count> <hex16>".
  const std::size_t words = reloaded.packed_vectors().rows() *
                            reloaded.packed_vectors().words_per_row();
  const std::size_t block_at = span.body_at + span.bytes - 1 - words * 8;
  const std::size_t checksum_at = block_at - 17;
  ASSERT_EQ(artifact[block_at - 1], '\n');
  ASSERT_EQ(artifact[checksum_at - 1], ' ');
  const std::size_t flip_at = block_at + words * 8 - 3;
  artifact[flip_at] = static_cast<char>(artifact[flip_at] ^ 0x10);
  artifact.replace(checksum_at, 16,
                   serde::hex16(serde::fnv1a64(std::string_view(artifact).substr(block_at, words * 8))));
  expect_load_error(artifact, "section 'hamming' checksum mismatch");

  // The same flip without re-signing: the block check fails first inside
  // the parser, and the loader still reports the section's checksum.
  std::string unsigned_flip = golden();
  unsigned_flip[flip_at] = static_cast<char>(unsigned_flip[flip_at] ^ 0x10);
  expect_load_error(unsigned_flip, "section 'hamming' checksum mismatch");
}

TEST(BundleStream, ParserThatStopsEarlyLeavesTheRestVerified) {
  // Trailing bytes the extractor parser never reads: checksum-valid, they
  // load and the next sections still line up; damaged, the checksum
  // rejects them.
  std::istringstream pristine_in(golden());
  const ModelBundle pristine = load_bundle(pristine_in);
  std::ostringstream extractor_body;
  pristine.extractor->save(extractor_body);
  std::ostringstream hamming_body;
  pristine.hamming->save(hamming_body);
  const std::string padded = extractor_body.str() + "\n\n   never parsed ~%zz\n";
  const auto craft = [&](const std::string& body, const std::string& checksum_of) {
    std::ostringstream out;
    out << "hdc-bundle v1\nsections 2\n";
    out << "section ~extractor " << body.size() << ' '
        << serde::hex16(serde::fnv1a64(checksum_of)) << '\n' << body << '\n';
    out << "section ~hamming " << hamming_body.str().size() << ' '
        << serde::hex16(serde::fnv1a64(hamming_body.str())) << '\n'
        << hamming_body.str() << '\n';
    out << "end\n";
    return out.str();
  };
  {
    std::istringstream in(craft(padded, padded));
    const ModelBundle loaded = load_bundle(in);
    ASSERT_TRUE(loaded.extractor && loaded.hamming);
    std::ostringstream again;
    loaded.extractor->save(again);
    EXPECT_EQ(again.str(), extractor_body.str());
    EXPECT_EQ(loaded.hamming->packed_vectors().rows(),
              pristine.hamming->packed_vectors().rows());
  }
  std::string damaged = padded;
  damaged[damaged.size() - 3] = 'Z';
  expect_load_error(craft(damaged, padded), "section 'extractor' checksum mismatch");
}

TEST(BundleStream, ParseErrorWaitsForTheFileFraming) {
  // A parse error in the first section and a truncated last section: the
  // truncation is reported, as it was when every checksum came first.
  std::string artifact = golden();
  const SectionSpan extractor = find_section(artifact, "extractor");
  const std::size_t magic_at = artifact.find("hdc-extractor", extractor.body_at);
  ASSERT_NE(magic_at, std::string::npos);
  std::string body = artifact.substr(extractor.body_at, extractor.bytes);
  body[magic_at - extractor.body_at] = 'X';
  artifact.replace(extractor.body_at, extractor.bytes, body);
  const std::size_t checksum_at = artifact.find(' ', artifact.find(' ', extractor.header_at + 9) + 1) + 1;
  artifact.replace(checksum_at, 16, serde::hex16(serde::fnv1a64(body)));
  expect_load_error(artifact, "section 'extractor'");
  expect_load_error(artifact.substr(0, artifact.size() - 40),
                    "section 'model:Logistic Regression' truncated");
}

TEST(BundleStream, TrickledSourceLoadsIdentically) {
  // Sources that return a few bytes per read, down to one, load the same
  // bundle as one that returns everything.
  for (const std::size_t step : {std::size_t{1}, std::size_t{7}, std::size_t{4093}}) {
    TrickleBuf buf(golden(), step);
    std::istream in(&buf);
    const ModelBundle loaded = load_bundle(in);
    EXPECT_EQ(resave(loaded), golden()) << "step " << step;
    ASSERT_TRUE(loaded.hamming && loaded.hamming->ann_enabled()) << "step " << step;
  }
}

TEST(BundleStream, SectionSinkReplaysBlockChecksums) {
  const std::vector<std::uint64_t> words = {1, 2, 3, 0xffffffffffffffffULL};
  serde::SectionSink sink;
  const auto write_body = [&](std::streambuf& buf) {
    std::ostream out(&buf);
    serde::Writer w(out);
    w.tag("body").u64(42).nl();
    w.word_block(words).nl();
    out.flush();
  };
  write_body(sink);
  std::ostringstream plain;
  write_body(*plain.rdbuf());
  EXPECT_EQ(sink.bytes(), plain.str().size());
  EXPECT_EQ(sink.checksum(), serde::fnv1a64(plain.str()));

  std::stringbuf out;
  sink.write_to(out);
  write_body(sink);
  EXPECT_EQ(out.str(), plain.str());
  EXPECT_EQ(sink.bytes(), plain.str().size());
  // A writing pass with more blocks than the measuring pass had is a bug.
  EXPECT_THROW((void)sink.block_checksum("extra"), std::logic_error);
}

TEST(BundleStream, ReadPackedTakesTheFingerprintInPassing) {
  const hdc::hv::PackedHVs rows = [] {
    hdc::util::Rng rng(11);
    std::vector<hdc::hv::BitVector> vectors;
    for (int i = 0; i < 37; ++i) vectors.push_back(hdc::hv::BitVector::random(300, rng));
    return hdc::hv::PackedHVs::pack(vectors);
  }();
  std::ostringstream body;
  serde::Writer w(body);
  hdc::hv::write_packed(w, rows);
  const std::string bytes = body.str();
  // Through a section source (the bundle path) and through a plain stream.
  for (const bool sectioned : {true, false}) {
    std::stringbuf file(bytes);
    serde::SectionSource source(file, bytes.size());
    std::istringstream plain(bytes);
    std::istream sectioned_in(&source);
    serde::Reader r(sectioned ? sectioned_in : static_cast<std::istream&>(plain), "test");
    std::uint64_t fingerprint = 0;
    const hdc::hv::PackedHVs loaded = hdc::hv::read_packed(r, "rows", 1000, &fingerprint);
    EXPECT_EQ(fingerprint, hdc::hv::packed_fingerprint(rows)) << sectioned;
    EXPECT_EQ(hdc::hv::packed_fingerprint(loaded), hdc::hv::packed_fingerprint(rows));
    if (sectioned) {
      ASSERT_TRUE(source.drain());
      EXPECT_EQ(source.checksum(), serde::fnv1a64(bytes));
    }
  }
}

TEST(BundleStream, WordBlockCannotOutgrowItsSection) {
  // A rows count that is valid for the caps but larger than the section
  // is refused before the rows are allocated.
  std::ostringstream body;
  body << "4096 65536\n";
  std::stringbuf file(body.str());
  serde::SectionSource source(file, body.str().size());
  std::istream in(&source);
  serde::Reader r(in, "test");
  try {
    (void)hdc::hv::read_packed(r, "rows", 1 << 20);
    FAIL() << "oversized block accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overruns its section"), std::string::npos)
        << e.what();
  }
}

}  // namespace
