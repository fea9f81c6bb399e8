#include "core/hamming_classifier.hpp"

#include <gtest/gtest.h>

#include "core/extractor.hpp"
#include "data/synthetic.hpp"
#include "eval/cross_validation.hpp"
#include "util/rng.hpp"

namespace hdc::core {
namespace {

// Two clusters of noisy copies of anchor vectors.
struct Clustered {
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
};

Clustered make_clusters(std::size_t per_class, std::size_t dim, std::size_t noise_bits,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  const hv::BitVector anchor0 = hv::BitVector::random_balanced(dim, rng);
  const hv::BitVector anchor1 = hv::BitVector::random_balanced(dim, rng);
  Clustered out;
  for (std::size_t i = 0; i < per_class; ++i) {
    out.vectors.push_back(anchor0.with_flipped(noise_bits, noise_bits, rng));
    out.labels.push_back(0);
    out.vectors.push_back(anchor1.with_flipped(noise_bits, noise_bits, rng));
    out.labels.push_back(1);
  }
  return out;
}

TEST(HammingClassifier, NearestNeighborOnCleanClusters) {
  const Clustered c = make_clusters(10, 2000, 50, 1);
  HammingClassifier model;
  model.fit(c.vectors, c.labels);
  util::Rng rng(2);
  // A fresh noisy copy of anchor 0 classifies as 0.
  const hv::BitVector query = c.vectors[0].with_flipped(30, 30, rng);
  EXPECT_EQ(model.predict(query), 0);
}

TEST(HammingClassifier, ScoreIsBinaryForNearestNeighbor) {
  const Clustered c = make_clusters(5, 1000, 20, 3);
  HammingClassifier model;
  model.fit(c.vectors, c.labels);
  const double s = model.predict_score(c.vectors[1]);
  EXPECT_TRUE(s == 0.0 || s == 1.0);
}

TEST(HammingClassifier, ExactMatchWinsOverOtherClass) {
  const Clustered c = make_clusters(8, 1000, 100, 4);
  HammingClassifier model;
  model.fit(c.vectors, c.labels);
  for (std::size_t i = 0; i < c.vectors.size(); ++i) {
    EXPECT_EQ(model.predict(c.vectors[i]), c.labels[i]);  // dist 0 to itself
  }
}

TEST(HammingClassifier, PrototypeModeBuildsClassBundles) {
  const Clustered c = make_clusters(15, 2000, 100, 5);
  HammingClassifier model(HammingMode::kPrototype);
  model.fit(c.vectors, c.labels);
  // Prototypes are close to their anchors: classify all training points.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < c.vectors.size(); ++i) {
    if (model.predict(c.vectors[i]) == c.labels[i]) ++hits;
  }
  EXPECT_EQ(hits, c.vectors.size());
  EXPECT_EQ(model.prototype(0).size(), 2000u);
}

TEST(HammingClassifier, PrototypeNeedsBothClasses) {
  HammingClassifier model(HammingMode::kPrototype);
  util::Rng rng(6);
  std::vector<hv::BitVector> vectors = {hv::BitVector::random(100, rng),
                                        hv::BitVector::random(100, rng)};
  std::vector<int> labels = {1, 1};
  EXPECT_THROW(model.fit(std::move(vectors), std::move(labels)),
               std::invalid_argument);
}

TEST(HammingClassifier, PrototypeAccessRequiresMode) {
  const Clustered c = make_clusters(3, 500, 10, 7);
  HammingClassifier model;  // nearest-neighbour mode
  model.fit(c.vectors, c.labels);
  EXPECT_THROW((void)model.prototype(0), std::logic_error);
}

TEST(HammingClassifier, RejectsBadInput) {
  HammingClassifier model;
  EXPECT_THROW(model.fit({}, {}), std::invalid_argument);
  util::Rng rng(8);
  std::vector<hv::BitVector> vectors = {hv::BitVector::random(100, rng)};
  std::vector<int> labels = {2};
  EXPECT_THROW(model.fit(std::move(vectors), std::move(labels)),
               std::invalid_argument);
}

TEST(HammingClassifier, UnfittedThrows) {
  const HammingClassifier model;
  EXPECT_THROW((void)model.predict_score(hv::BitVector(10)), std::logic_error);
}

TEST(HammingLoo, PerfectOnWellSeparatedClusters) {
  const Clustered c = make_clusters(12, 2000, 80, 9);
  const auto predictions = eval::hamming_loocv(c.vectors, c.labels).predictions;
  ASSERT_EQ(predictions.size(), c.vectors.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    EXPECT_EQ(predictions[i], c.labels[i]);
  }
}

TEST(HammingLoo, MetricsOnPerfectClustersAreAllOne) {
  const Clustered c = make_clusters(10, 1000, 30, 10);
  const eval::BinaryMetrics m = hamming_loo_metrics(c.vectors, c.labels);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.specificity, 1.0);
}

TEST(HammingLoo, DoesNotUseSelfMatch) {
  // Two vectors per class, each class pair identical: removing self still
  // leaves the twin, so predictions stay correct. With unique vectors per
  // class + adversarial placement, self-exclusion forces errors.
  util::Rng rng(11);
  const hv::BitVector a = hv::BitVector::random_balanced(1000, rng);
  hv::BitVector b = a;
  for (std::size_t i = 0; i < b.size(); ++i) b.flip(i);  // complement: far from a
  // One lone positive close to the negative cluster: its nearest *other*
  // vector is negative, so LOO must misclassify it.
  const std::vector<hv::BitVector> vectors = {a, a.with_flipped(5, 5, rng), b};
  const std::vector<int> labels = {0, 0, 1};
  const auto predictions = eval::hamming_loocv(vectors, labels).predictions;
  EXPECT_EQ(predictions[2], 0);  // forced error proves no self-match
  EXPECT_EQ(predictions[0], 0);
  EXPECT_EQ(predictions[1], 0);
}

TEST(HammingLoo, RequiresAtLeastTwoVectors) {
  util::Rng rng(12);
  const std::vector<hv::BitVector> one = {hv::BitVector::random(100, rng)};
  const std::vector<int> labels = {0};
  EXPECT_THROW((void)eval::hamming_loocv(one, labels), std::invalid_argument);
}

TEST(HammingClassifier, KnnVoteFractionScore) {
  // 3-NN: the score is the positive fraction of the three nearest vectors.
  util::Rng rng(20);
  const hv::BitVector anchor = hv::BitVector::random_balanced(1000, rng);
  std::vector<hv::BitVector> vectors = {
      anchor.with_flipped(5, 5, rng),    // pos, very close
      anchor.with_flipped(10, 10, rng),  // neg, close
      anchor.with_flipped(15, 15, rng),  // pos, close
      anchor.with_flipped(200, 200, rng) // neg, far (outside the 3-NN set)
  };
  std::vector<int> labels = {1, 0, 1, 0};
  HammingClassifier model(HammingMode::kNearestNeighbor, 3);
  model.fit(std::move(vectors), std::move(labels));
  EXPECT_NEAR(model.predict_score(anchor), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(model.predict(anchor), 1);
}

TEST(HammingClassifier, KnnClampsToTrainingSize) {
  util::Rng rng(21);
  std::vector<hv::BitVector> vectors = {hv::BitVector::random(100, rng),
                                        hv::BitVector::random(100, rng)};
  std::vector<int> labels = {1, 0};
  HammingClassifier model(HammingMode::kNearestNeighbor, 10);
  model.fit(std::move(vectors), std::move(labels));
  EXPECT_NEAR(model.predict_score(hv::BitVector(100)), 0.5, 1e-12);
}

TEST(HammingClassifier, ZeroKRejected) {
  EXPECT_THROW(HammingClassifier(HammingMode::kNearestNeighbor, 0),
               std::invalid_argument);
}

TEST(HammingLoo, EndToEndOnSylhetBeatsChance) {
  const data::Dataset ds = data::make_sylhet({60, 90, 13});
  ExtractorConfig config;
  config.dimensions = 2000;
  HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  const eval::BinaryMetrics m = hamming_loo_metrics(extractor.transform(ds),
                                                    ds.labels());
  // At this reduced size (150 rows) and dimensionality the 1-NN model is
  // noticeably below the paper's full-size ~0.96 but must beat chance (0.6
  // majority) clearly. The full-size number is checked by bench/table2.
  EXPECT_GT(m.accuracy, 0.7);
}

}  // namespace
}  // namespace hdc::core
