#include "core/extractor.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "data/synthetic.hpp"

namespace hdc::core {
namespace {

data::Dataset mixed_dataset() {
  data::Dataset ds({{"age", data::ColumnKind::kContinuous},
                    {"flag", data::ColumnKind::kBinary},
                    {"bmi", data::ColumnKind::kContinuous}});
  ds.add_row(std::vector<double>{25.0, 0.0, 20.0}, 0);
  ds.add_row(std::vector<double>{35.0, 1.0, 30.0}, 1);
  ds.add_row(std::vector<double>{45.0, 0.0, 25.0}, 0);
  ds.add_row(std::vector<double>{55.0, 1.0, 40.0}, 1);
  return ds;
}

ExtractorConfig small_config() {
  ExtractorConfig config;
  config.dimensions = 2000;
  return config;
}

TEST(Extractor, DefaultDimensionsMatchPaper) {
  const HdcFeatureExtractor extractor;
  EXPECT_EQ(extractor.dimensions(), 10000u);
}

TEST(Extractor, FitTransformShapes) {
  HdcFeatureExtractor extractor(small_config());
  const data::Dataset ds = mixed_dataset();
  extractor.fit(ds);
  ASSERT_TRUE(extractor.fitted());
  const auto vectors = extractor.transform(ds);
  ASSERT_EQ(vectors.size(), 4u);
  for (const auto& v : vectors) EXPECT_EQ(v.size(), 2000u);
}

TEST(Extractor, DeterministicAcrossInstances) {
  const data::Dataset ds = mixed_dataset();
  HdcFeatureExtractor a(small_config());
  HdcFeatureExtractor b(small_config());
  a.fit(ds);
  b.fit(ds);
  EXPECT_EQ(a.transform(ds), b.transform(ds));
}

TEST(Extractor, SeedChangesEncoding) {
  const data::Dataset ds = mixed_dataset();
  ExtractorConfig other = small_config();
  other.seed = 12345;
  HdcFeatureExtractor a(small_config());
  HdcFeatureExtractor b(other);
  a.fit(ds);
  b.fit(ds);
  EXPECT_NE(a.transform(ds), b.transform(ds));
}

TEST(Extractor, SimilarPatientsCloserThanDissimilar) {
  const data::Dataset ds = mixed_dataset();
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(ds);
  const std::vector<double> base = {30.0, 1.0, 28.0};
  const std::vector<double> near = {32.0, 1.0, 29.0};
  const std::vector<double> far = {55.0, 0.0, 40.0};
  const auto vb = extractor.encode_row(base);
  EXPECT_LT(vb.hamming(extractor.encode_row(near)),
            vb.hamming(extractor.encode_row(far)));
}

TEST(Extractor, BinaryColumnUsesTwoDistinctVectors) {
  const data::Dataset ds = mixed_dataset();
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(ds);
  // Same row except the binary flag: distance must be positive but bounded
  // by the single feature's contribution.
  const std::vector<double> a = {40.0, 0.0, 30.0};
  const std::vector<double> b = {40.0, 1.0, 30.0};
  const std::size_t d = extractor.encode_row(a).hamming(extractor.encode_row(b));
  EXPECT_GT(d, 0u);
  EXPECT_LT(d, 2000u / 2);
}

TEST(Extractor, TransformToMatrixIsZeroOne) {
  const data::Dataset ds = mixed_dataset();
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(ds);
  const auto X = extractor.transform_to_matrix(ds);
  ASSERT_EQ(X.size(), ds.n_rows());
  ASSERT_EQ(X.front().size(), 2000u);
  for (const auto& row : X) {
    for (const double v : row) EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST(Extractor, MissingAsMinSubstitution) {
  const data::Dataset ds = mixed_dataset();
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(ds);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> missing_row = {kNaN, 1.0, 30.0};
  const std::vector<double> min_row = {25.0, 1.0, 30.0};  // age min = 25
  EXPECT_EQ(extractor.encode_row(missing_row), extractor.encode_row(min_row));
}

TEST(Extractor, MissingRejectedWhenDisabled) {
  ExtractorConfig config = small_config();
  config.missing_as_min = false;
  HdcFeatureExtractor extractor(config);
  extractor.fit(mixed_dataset());
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> missing_row = {kNaN, 1.0, 30.0};
  EXPECT_THROW((void)extractor.encode_row(missing_row), std::invalid_argument);
}

TEST(Extractor, UnfittedThrows) {
  const HdcFeatureExtractor extractor(small_config());
  const std::vector<double> row = {1.0};
  EXPECT_THROW((void)extractor.encode_row(row), std::logic_error);
  EXPECT_THROW((void)extractor.record_encoder(), std::logic_error);
}

TEST(Extractor, ArityMismatchThrows) {
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(mixed_dataset());
  const std::vector<double> bad = {1.0};
  EXPECT_THROW((void)extractor.encode_row(bad), std::invalid_argument);
}

TEST(Extractor, RejectsBadDimensions) {
  ExtractorConfig config;
  config.dimensions = 0;
  EXPECT_THROW(HdcFeatureExtractor{config}, std::invalid_argument);
  config.dimensions = 1001;  // not a multiple of 4
  EXPECT_THROW(HdcFeatureExtractor{config}, std::invalid_argument);
}

TEST(Extractor, EmptyFitThrows) {
  HdcFeatureExtractor extractor(small_config());
  const data::Dataset empty({{"x", data::ColumnKind::kContinuous}});
  EXPECT_THROW(extractor.fit(empty), std::invalid_argument);
}

TEST(Extractor, WorksOnSylhetScale) {
  const data::Dataset ds = data::make_sylhet({40, 60, 7});
  HdcFeatureExtractor extractor(small_config());
  extractor.fit(ds);
  const auto vectors = extractor.transform(ds);
  EXPECT_EQ(vectors.size(), 100u);
  // Patient hypervectors keep roughly balanced density after majority voting.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(vectors[i].popcount()) /
                    static_cast<double>(vectors[i].size()),
                0.5, 0.15);
  }
}

}  // namespace
}  // namespace hdc::core
