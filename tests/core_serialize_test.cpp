#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/bundle.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"

namespace hdc::core {
namespace {

TEST(SerializeBitVector, RoundTrip) {
  util::Rng rng(1);
  const hv::BitVector original = hv::BitVector::random(10000, rng);
  std::stringstream stream;
  write_bitvector(stream, original);
  EXPECT_EQ(read_bitvector(stream), original);
}

TEST(SerializeBitVector, OddSizesRoundTrip) {
  util::Rng rng(2);
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 127u, 1000u}) {
    const hv::BitVector original = hv::BitVector::random(bits, rng);
    std::stringstream stream;
    write_bitvector(stream, original);
    EXPECT_EQ(read_bitvector(stream), original) << bits;
  }
}

TEST(SerializeBitVector, TruncatedInputThrows) {
  // Needs 2 words; the second is missing entirely.
  std::istringstream stream("128 00000000deadbeef");
  EXPECT_THROW((void)read_bitvector(stream), std::runtime_error);
}

TEST(SerializeBitVector, OddLengthHexThrows) {
  // Words are fixed-width 16-hex-digit tokens; a short (odd-length) word is
  // a short read / hand-edited file, not something to zero-extend silently.
  std::istringstream stream("64 deadbeef");
  EXPECT_THROW((void)read_bitvector(stream), std::runtime_error);
  std::istringstream fifteen("64 00000000deadbee");
  EXPECT_THROW((void)read_bitvector(fifteen), std::runtime_error);
  std::istringstream seventeen("64 000000000deadbeef");
  EXPECT_THROW((void)read_bitvector(seventeen), std::runtime_error);
}

TEST(SerializeBitVector, HexGarbageThrows) {
  std::istringstream uppercase("64 00000000DEADBEEF");
  EXPECT_THROW((void)read_bitvector(uppercase), std::runtime_error);
  std::istringstream stray("64 0000000000g0beef");
  EXPECT_THROW((void)read_bitvector(stray), std::runtime_error);
}

TEST(SerializeBitVector, NonzeroPaddingBitsThrow) {
  // 60-bit vector: the top 4 bits of the single word must be zero.
  std::istringstream padded("60 f000000000000001");
  EXPECT_THROW((void)read_bitvector(padded), std::runtime_error);
  std::istringstream clean("60 0000000000000001");
  EXPECT_EQ(read_bitvector(clean).popcount(), 1u);
}

TEST(SerializeBitVector, TrailingDataThrows) {
  std::istringstream stream("64 0000000000000001 0000000000000002");
  EXPECT_THROW((void)read_bitvector(stream), std::runtime_error);
}

TEST(SerializeBitVector, BadSizeThrows) {
  std::istringstream negative("-8 0000000000000001");
  EXPECT_THROW((void)read_bitvector(negative), std::runtime_error);
  std::istringstream huge("999999999999 0000000000000001");
  EXPECT_THROW((void)read_bitvector(huge), std::runtime_error);
  std::istringstream garbage("sixty-four 0000000000000001");
  EXPECT_THROW((void)read_bitvector(garbage), std::runtime_error);
}

TEST(SerializeExtractor, RoundTripPreservesEncoding) {
  const data::Dataset ds = data::make_sylhet({30, 40, 3});
  ExtractorConfig config;
  config.dimensions = 2000;
  config.seed = 777;
  HdcFeatureExtractor original(config);
  original.fit(ds);

  std::stringstream stream;
  save_extractor(stream, original);
  const HdcFeatureExtractor loaded = load_extractor(stream);

  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.dimensions(), original.dimensions());
  // The loaded extractor must encode identically — same seeds, same ranges.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded.encode_row(ds.row(i)), original.encode_row(ds.row(i))) << i;
  }
}

TEST(SerializeExtractor, PreservesColumnMetadata) {
  const data::Dataset ds = data::make_pima({40, 20, false, 0.05, 4});
  HdcFeatureExtractor original;
  original.fit(ds);
  std::stringstream stream;
  save_extractor(stream, original);
  const HdcFeatureExtractor loaded = load_extractor(stream);
  const auto& columns = loaded.column_encodings();
  ASSERT_EQ(columns.size(), 8u);
  EXPECT_EQ(columns[1].name, "Glucose");
  EXPECT_EQ(columns[1].kind, data::ColumnKind::kContinuous);
  EXPECT_DOUBLE_EQ(columns[1].lo, original.column_encodings()[1].lo);
}

TEST(SerializeExtractor, UnfittedSaveThrows) {
  const HdcFeatureExtractor extractor;
  std::ostringstream out;
  EXPECT_THROW(save_extractor(out, extractor), std::invalid_argument);
}

TEST(SerializeExtractor, BadMagicThrows) {
  std::istringstream in("not-a-model\n");
  EXPECT_THROW((void)load_extractor(in), std::runtime_error);
}

TEST(SerializeExtractor, TruncatedThrows) {
  std::istringstream in("hdc-extractor v1\n2000\n");
  EXPECT_THROW((void)load_extractor(in), std::runtime_error);
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

  std::stringstream stream;
  save_hamming(stream, original);
  const HammingClassifier loaded = load_hamming(stream);

  for (int q = 0; q < 10; ++q) {
    const hv::BitVector query = hv::BitVector::random(500, rng);
    EXPECT_EQ(loaded.predict(query), original.predict(query)) << q;
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
  std::stringstream stream;
  save_hamming(stream, original);
  const HammingClassifier loaded = load_hamming(stream);
  EXPECT_EQ(loaded.mode(), HammingMode::kPrototype);
  EXPECT_EQ(loaded.prototype(0), original.prototype(0));
  EXPECT_EQ(loaded.prototype(1), original.prototype(1));
}

TEST(SerializeHamming, UnfittedSaveThrows) {
  const HammingClassifier model;
  std::ostringstream out;
  EXPECT_THROW(save_hamming(out, model), std::invalid_argument);
}

TEST(SerializeHamming, BadInputThrows) {
  std::istringstream bad_magic("nope\n");
  EXPECT_THROW((void)load_hamming(bad_magic), std::runtime_error);
  std::istringstream bad_mode("hdc-hamming v2\nwarp\n1\n");
  EXPECT_THROW((void)load_hamming(bad_mode), std::runtime_error);
  std::istringstream empty_model("hdc-hamming v2\nnearest\n0\n");
  EXPECT_THROW((void)load_hamming(empty_model), std::runtime_error);
}

TEST(SerializeHamming, OldVersionMagicThrows) {
  // v1 files used variable-width hex words; the strict v2 reader refuses the
  // old magic instead of misparsing the body.
  std::istringstream v1("hdc-hamming v1\nnearest\n1\n0\n64 deadbeef\n");
  EXPECT_THROW((void)load_hamming(v1), std::runtime_error);
}

TEST(SerializeHamming, ShortReadThrows) {
  // A valid header whose last vector line got cut mid-word (the classic
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
  save_hamming(out, model);
  const std::string full = out.str();
  // Chop inside the final hex word: odd-length token -> strict reader throws.
  std::istringstream truncated(full.substr(0, full.size() - 9));
  EXPECT_THROW((void)load_hamming(truncated), std::runtime_error);
}

// Files carry the extractor as a checksummed bundle section (core/bundle);
// serialize is only the section body codec.
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
