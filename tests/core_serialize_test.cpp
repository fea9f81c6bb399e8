// Section body codecs: the packed-rows codec (hv::write_packed /
// hv::read_packed, one util::serde word block) and the extractor and
// Hamming serializers behind the bundle's `extractor` and `hamming`
// sections. Corrupt bodies are generated with the Writer, so every block
// case carries a valid checksum unless the case is about the checksum.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/search.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace hdc::core {
namespace {

std::string save_rows(const std::vector<hv::BitVector>& vectors) {
  std::ostringstream out;
  util::serde::Writer writer(out);
  hv::write_packed(writer, hv::PackedHVs::pack(vectors));
  return out.str();
}

hv::PackedHVs load_rows(const std::string& text) {
  std::istringstream in(text);
  util::serde::Reader reader(in, "rows");
  return hv::read_packed(reader, "rows");
}

/// A well-formed word block (valid count and checksum) over `words`,
/// without a trailing separator.
std::string block(const std::vector<std::uint64_t>& words) {
  std::ostringstream out;
  util::serde::Writer(out).word_block(words);
  return out.str();
}

/// A packed-rows body: the "<rows> <bits>" header line, then one block.
std::string rows_body(const std::string& header, const std::vector<std::uint64_t>& words) {
  return header + "\n" + block(words) + "\n";
}

/// `body` with its first occurrence of `from` replaced by `to`.
std::string edit(std::string body, const std::string& from, const std::string& to) {
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? body : body.replace(at, from.size(), to);
}

TEST(SerializeBitVector, RoundTrip) {
  util::Rng rng(1);
  const hv::BitVector original = hv::BitVector::random(10000, rng);
  const hv::PackedHVs loaded = load_rows(save_rows({original}));
  ASSERT_EQ(loaded.rows(), 1u);
  EXPECT_EQ(loaded.unpack_row(0), original);
}

TEST(SerializeBitVector, OddSizesRoundTrip) {
  util::Rng rng(2);
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 127u, 1000u}) {
    const std::vector<hv::BitVector> original = {hv::BitVector::random(bits, rng),
                                                 hv::BitVector::random(bits, rng)};
    const hv::PackedHVs loaded = load_rows(save_rows(original));
    ASSERT_EQ(loaded.rows(), 2u) << bits;
    EXPECT_EQ(loaded.unpack_row(0), original[0]) << bits;
    EXPECT_EQ(loaded.unpack_row(1), original[1]) << bits;
  }
}

TEST(SerializeBitVector, TruncatedInputThrows) {
  // Needs 2 words; the block holds 1.
  EXPECT_THROW((void)load_rows(rows_body("1 128", {0xdeadbeefULL})), std::runtime_error);
  // A well-formed body cut inside its block, at every byte of the words.
  util::Rng rng(3);
  const std::string full = save_rows({hv::BitVector::random(128, rng)});
  const std::size_t words_start = full.size() - 1 - 16;
  for (std::size_t cut = words_start; cut < full.size() - 1; ++cut) {
    EXPECT_THROW((void)load_rows(full.substr(0, cut)), std::runtime_error) << cut;
  }
}

TEST(SerializeBitVector, BlockCountMismatchThrows) {
  // The block's word count must be the header's rows × words per row: one
  // short, one long and 2^40 are rejected before any word is read.
  const std::string pristine = rows_body("2 64", {1, 2});
  EXPECT_EQ(load_rows(pristine).row(1)[0], 2u);
  EXPECT_THROW((void)load_rows(rows_body("2 64", {1})), std::runtime_error);
  EXPECT_THROW((void)load_rows(rows_body("2 64", {1, 2, 3})), std::runtime_error);
  EXPECT_THROW((void)load_rows(edit(pristine, "\n2 ", "\n1099511627776 ")),
               std::runtime_error);
}

TEST(SerializeBitVector, BlockChecksumMismatchThrows) {
  // The block is self-checking: a flipped word byte, a wrong or
  // non-canonical checksum, and a missing or extra separator byte (which
  // shift the words) are all rejected.
  const std::vector<std::uint64_t> words = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string pristine = rows_body("2 64", words);
  ASSERT_EQ(load_rows(pristine).row(0)[0], words[0]);
  const std::size_t words_start = pristine.size() - 1 - 16;
  const std::string checksum = pristine.substr(words_start - 17, 16);
  std::string upper = checksum;
  for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  std::vector<std::string> bad;
  for (const std::size_t at : {words_start, words_start + 7, words_start + 15}) {
    std::string flipped = pristine;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    bad.push_back(flipped);
  }
  bad.push_back(edit(pristine, checksum, std::string(16, '0')));
  if (upper != checksum) bad.push_back(edit(pristine, checksum, upper));
  bad.push_back(std::string(pristine).erase(words_start - 1, 1));
  bad.push_back(std::string(pristine).insert(words_start, "\n"));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW((void)load_rows(bad[i]), std::runtime_error) << i;
  }
}

TEST(SerializeBitVector, NonzeroPaddingBitsThrow) {
  // 60-bit rows: the top 4 bits of each row's single word must be zero.
  EXPECT_THROW((void)load_rows(rows_body("1 60", {0xf000000000000001ULL})),
               std::runtime_error);
  EXPECT_THROW((void)load_rows(rows_body("2 60", {1, 1ULL << 60})), std::runtime_error);
  EXPECT_EQ(load_rows(rows_body("1 60", {1})).unpack_row(0).popcount(), 1u);
}

TEST(SerializeBitVector, TrailingDataThrows) {
  // A block holding more words than the rows' width needs.
  EXPECT_THROW((void)load_rows(rows_body("1 64", {1, 2})), std::runtime_error);
}

TEST(SerializeBitVector, BadSizeThrows) {
  for (const char* header : {"1 -8", "1 999999999999", "1 sixty-four", "999999999999 64"}) {
    EXPECT_THROW((void)load_rows(rows_body(header, {1})), std::runtime_error) << header;
  }
}

HdcFeatureExtractor round_trip(const HdcFeatureExtractor& original) {
  std::stringstream stream;
  original.save(stream);
  return HdcFeatureExtractor::load(stream);
}

HammingClassifier round_trip(const HammingClassifier& original) {
  std::stringstream stream;
  original.save(stream);
  return HammingClassifier::load(stream);
}

TEST(SerializeExtractor, RoundTripPreservesEncoding) {
  const data::Dataset ds = data::make_sylhet({30, 40, 3});
  ExtractorConfig config;
  config.dimensions = 2000;
  config.seed = 777;
  HdcFeatureExtractor original(config);
  original.fit(ds);

  const HdcFeatureExtractor loaded = round_trip(original);

  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.dimensions(), original.dimensions());
  // The loaded extractor must encode identically — same seeds, same ranges.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded.encode_row(ds.row(i)), original.encode_row(ds.row(i))) << i;
  }
}

TEST(SerializeExtractor, FullRangeSeedRoundTrips) {
  // util::mix_seed yields seeds across the whole uint64_t range; one above
  // 2^63 must load back, not overflow a signed parse.
  const data::Dataset ds = data::make_sylhet({20, 20, 5});
  ExtractorConfig config;
  config.dimensions = 512;
  config.seed = 0xF000000000000000ULL;
  HdcFeatureExtractor original(config);
  original.fit(ds);

  const HdcFeatureExtractor loaded = round_trip(original);

  EXPECT_EQ(loaded.config().seed, config.seed);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.encode_row(ds.row(i)), original.encode_row(ds.row(i))) << i;
  }
}

TEST(SerializeExtractor, PreservesColumnMetadata) {
  const data::Dataset ds = data::make_pima({40, 20, false, 0.05, 4});
  HdcFeatureExtractor original;
  original.fit(ds);
  const HdcFeatureExtractor loaded = round_trip(original);
  const auto& columns = loaded.column_encodings();
  ASSERT_EQ(columns.size(), 8u);
  EXPECT_EQ(columns[1].name, "Glucose");
  EXPECT_EQ(columns[1].kind, data::ColumnKind::kContinuous);
  // Doubles travel as their bit pattern: exact, not merely close.
  EXPECT_EQ(columns[1].lo, original.column_encodings()[1].lo);
  EXPECT_EQ(columns[1].hi, original.column_encodings()[1].hi);
}

TEST(SerializeExtractor, UnfittedSaveThrows) {
  const HdcFeatureExtractor extractor;
  std::ostringstream out;
  EXPECT_THROW(extractor.save(out), std::invalid_argument);
}

TEST(SerializeExtractor, BadMagicThrows) {
  std::istringstream in("not-a-model\n");
  EXPECT_THROW((void)HdcFeatureExtractor::load(in), std::runtime_error);
}

TEST(SerializeExtractor, TruncatedThrows) {
  std::istringstream in("hdc-extractor v2\n2000\n");
  EXPECT_THROW((void)HdcFeatureExtractor::load(in), std::runtime_error);
}

TEST(SerializeExtractor, OldVersionThrows) {
  // v1 bodies were decimal lines with the name unescaped at the end.
  std::istringstream in(
      "hdc-extractor v1\n2000\n777\n1\n1\n1\ncontinuous 0 10 Age\n");
  EXPECT_THROW((void)HdcFeatureExtractor::load(in), std::runtime_error);
}

TEST(SerializeHamming, RoundTripPredictsIdentically) {
  util::Rng rng(5);
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  for (int i = 0; i < 20; ++i) {
    vectors.push_back(hv::BitVector::random(500, rng));
    labels.push_back(i % 2);
  }
  HammingClassifier original;
  original.fit(vectors, labels);

  const HammingClassifier loaded = round_trip(original);

  for (int q = 0; q < 10; ++q) {
    const hv::BitVector query = hv::BitVector::random(500, rng);
    EXPECT_EQ(loaded.predict(query), original.predict(query)) << q;
  }
}

TEST(SerializeHamming, KRoundTrips) {
  util::Rng rng(8);
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    vectors.push_back(hv::BitVector::random(256, rng));
    labels.push_back(static_cast<int>(rng.below(2)));
  }
  HammingClassifier original(HammingMode::kNearestNeighbor, 3);
  original.fit(vectors, labels);

  const HammingClassifier loaded = round_trip(original);

  EXPECT_EQ(loaded.k(), 3u);
  for (int q = 0; q < 20; ++q) {
    const hv::BitVector query = hv::BitVector::random(256, rng);
    EXPECT_EQ(loaded.predict_score(query), original.predict_score(query)) << q;
  }
}

TEST(SerializeHamming, PrototypeModeRoundTrip) {
  util::Rng rng(6);
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) {
    vectors.push_back(hv::BitVector::random(256, rng));
    labels.push_back(i % 2);
  }
  HammingClassifier original(HammingMode::kPrototype);
  original.fit(vectors, labels);
  const HammingClassifier loaded = round_trip(original);
  EXPECT_EQ(loaded.mode(), HammingMode::kPrototype);
  EXPECT_EQ(loaded.prototype(0), original.prototype(0));
  EXPECT_EQ(loaded.prototype(1), original.prototype(1));
}

TEST(SerializeHamming, UnfittedSaveThrows) {
  const HammingClassifier model;
  std::ostringstream out;
  EXPECT_THROW(model.save(out), std::invalid_argument);
}

TEST(SerializeHamming, BadInputThrows) {
  std::istringstream bad_magic("nope\n");
  EXPECT_THROW((void)HammingClassifier::load(bad_magic), std::runtime_error);
  std::istringstream bad_mode("hdc-hamming v4\nwarp 1\n1 0\n" + rows_body("1 64", {1}));
  EXPECT_THROW((void)HammingClassifier::load(bad_mode), std::runtime_error);
  std::istringstream empty_model("hdc-hamming v4\nnearest 1\n0\n" + rows_body("0 64", {}));
  EXPECT_THROW((void)HammingClassifier::load(empty_model), std::runtime_error);
}

TEST(SerializeHamming, OldVersionMagicThrows) {
  // v2 bodies were decimal lines with one "<bits> <words...>" line per
  // vector, v3 bodies hex word lists; the v4 reader refuses both instead of
  // misparsing them, and says how to get a readable artifact.
  for (const char* old : {"hdc-hamming v2\nnearest\n1\n0\n64 00000000deadbeef\n",
                          "hdc-hamming v3\nnearest 1\n1 0\n1 64\n1 00000000deadbeef\n"}) {
    std::istringstream in(old);
    try {
      (void)HammingClassifier::load(in);
      ADD_FAILURE() << old << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("re-run `hdc_cli bundle`"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializeHamming, ShortReadThrows) {
  // A valid header whose last row got cut mid-word (the classic
  // partial-download failure) must be a clean error, not a silent zero-fill.
  util::Rng rng(7);
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  for (int i = 0; i < 4; ++i) {
    vectors.push_back(hv::BitVector::random(192, rng));
    labels.push_back(i % 2);
  }
  HammingClassifier model;
  model.fit(vectors, labels);
  std::ostringstream out;
  model.save(out);
  const std::string full = out.str();
  // Chop inside the final word: the block's byte count comes up short.
  std::istringstream truncated(full.substr(0, full.size() - 5));
  EXPECT_THROW((void)HammingClassifier::load(truncated), std::runtime_error);
}

TEST(SerializeHamming, BodyCorruptionsRejected) {
  // Two 60-bit rows (so each row's word has padding bits), labels {0, 1}.
  const std::string head = "hdc-hamming v4\nnearest 1\n2 0 1\n";
  const std::string pristine = head + rows_body("2 60", {1, 2});
  {
    std::istringstream in(pristine);
    const HammingClassifier loaded = HammingClassifier::load(in);
    std::ostringstream resaved;
    loaded.save(resaved);
    ASSERT_EQ(resaved.str(), pristine);
  }
  const std::size_t words_start = pristine.size() - 1 - 16;
  std::string flipped = pristine;
  flipped[words_start + 8] = static_cast<char>(flipped[words_start + 8] ^ 0x02);
  const std::string checksum = pristine.substr(words_start - 17, 16);
  const struct {
    const char* what;
    std::string body;
  } cases[] = {
      {"truncated mid-word", pristine.substr(0, pristine.size() - 5)},
      {"missing row", head + rows_body("2 60", {1})},
      {"block count one short", edit(pristine, "\n2 " + checksum, "\n1 " + checksum)},
      {"block count one long", edit(pristine, "\n2 " + checksum, "\n3 " + checksum)},
      {"block count 2^40", edit(pristine, "\n2 " + checksum, "\n1099511627776 " + checksum)},
      {"flipped word byte", flipped},
      {"zeroed block checksum", edit(pristine, checksum, std::string(16, '0'))},
      {"short block checksum", edit(pristine, checksum, checksum.substr(1))},
      {"missing separator", std::string(pristine).erase(words_start - 1, 1)},
      {"extra separator", std::string(pristine).insert(words_start, "\n")},
      {"nonzero padding", head + rows_body("2 60", {1, 0xf000000000000002ULL})},
      {"extra word in the block", head + rows_body("2 60", {1, 2, 3})},
      {"negative width", edit(pristine, "2 60", "2 -60")},
      {"huge width", edit(pristine, "2 60", "2 999999999999")},
      {"garbage width", edit(pristine, "2 60", "2 sixty")},
      {"more rows than labels", edit(pristine, "2 60", "3 60")},
      {"fewer rows than labels", edit(pristine, "2 0 1\n", "3 0 1 1\n")},
      {"label not 0/1", edit(pristine, "2 0 1\n", "2 0 2\n")},
      {"label past int", edit(pristine, "2 0 1\n", "2 0 4294967297\n")},
      {"k zero", edit(pristine, "nearest 1", "nearest 0")},
      {"old version", edit(pristine, "v4", "v3")},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.body);
    EXPECT_THROW((void)HammingClassifier::load(in), std::runtime_error) << c.what;
  }
}

TEST(SerializeBundle, PimaAnnRoundTripPredictsIdentically) {
  // Pima M through a whole bundle with the ANN index baked in (hdc_cli
  // bundle --ann): the index attaches on load and every prediction matches
  // the in-memory model.
  const data::Dataset ds = data::impute_class_median(data::make_pima());
  ExtractorConfig config;
  config.dimensions = 2000;
  ModelBundle bundle;
  bundle.extractor.emplace(config).fit(ds);
  const std::vector<hv::BitVector> encoded = bundle.extractor->transform(ds);
  bundle.hamming.emplace().fit(encoded, ds.labels());
  bundle.hamming->enable_ann();

  std::stringstream stream;
  save_bundle(stream, bundle);
  const ModelBundle loaded = load_bundle(stream);

  ASSERT_TRUE(loaded.extractor.has_value());
  ASSERT_TRUE(loaded.hamming.has_value());
  EXPECT_TRUE(loaded.hamming->ann_enabled());
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    const hv::BitVector query = loaded.extractor->encode_row(ds.row(i));
    ASSERT_EQ(query, encoded[i]) << i;
    EXPECT_EQ(loaded.hamming->predict_score(query),
              bundle.hamming->predict_score(query))
        << i;
  }
}

// Files carry the extractor as a checksummed bundle section (core/bundle).
TEST(SerializeFiles, ExtractorFileRoundTrip) {
  const data::Dataset ds = data::make_sylhet({20, 20, 7});
  ModelBundle bundle;
  bundle.extractor.emplace().fit(ds);
  const std::string path = ::testing::TempDir() + "/extractor.bundle";
  save_bundle_file(path, bundle);
  const ModelBundle loaded = load_bundle_file(path);
  ASSERT_TRUE(loaded.extractor.has_value());
  EXPECT_EQ(loaded.extractor->encode_row(ds.row(0)),
            bundle.extractor->encode_row(ds.row(0)));
}

TEST(SerializeFiles, MissingFileThrows) {
  EXPECT_THROW((void)load_bundle_file("/no/such/file.bundle"), std::runtime_error);
}

}  // namespace
}  // namespace hdc::core
