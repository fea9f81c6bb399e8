#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "ml/knn.hpp"
#include "ml/naive_bayes.hpp"

namespace hdc::ml {
namespace {

TEST(Knn, NearestNeighborMemorisesWithK1) {
  const data::Dataset ds = data::make_two_gaussians(50, 3, 1.0, 61);
  KnnConfig config;
  config.k = 1;
  KnnClassifier model(config);
  model.fit(ds.feature_matrix(), ds.labels());
  EXPECT_DOUBLE_EQ(model.accuracy(ds.feature_matrix(), ds.labels()), 1.0);
}

TEST(Knn, DefaultK5SeparatesBlobs) {
  const data::Dataset ds = data::make_two_gaussians(100, 3, 4.0, 62);
  KnnClassifier model;
  model.fit(ds.feature_matrix(), ds.labels());
  EXPECT_GT(model.accuracy(ds.feature_matrix(), ds.labels()), 0.98);
}

TEST(Knn, ProbaIsNeighborFraction) {
  Matrix X = {{0.0}, {0.1}, {0.2}, {10.0}, {10.1}};
  Labels y = {1, 1, 0, 0, 0};
  KnnConfig config;
  config.k = 3;
  KnnClassifier model(config);
  model.fit(X, y);
  const std::vector<double> q = {0.05};
  EXPECT_NEAR(model.predict_proba(q), 2.0 / 3.0, 1e-9);
}

TEST(Knn, KLargerThanDataIsClamped) {
  Matrix X = {{0.0}, {1.0}};
  Labels y = {0, 1};
  KnnConfig config;
  config.k = 10;
  KnnClassifier model(config);
  model.fit(X, y);
  const std::vector<double> q = {0.5};
  EXPECT_NEAR(model.predict_proba(q), 0.5, 1e-9);
}

TEST(Knn, ZeroKRejected) {
  KnnConfig config;
  config.k = 0;
  EXPECT_THROW(KnnClassifier{config}, std::invalid_argument);
}

TEST(Knn, NotFittedThrows) {
  const KnnClassifier model;
  const std::vector<double> x = {0.0};
  EXPECT_THROW((void)model.predict_proba(x), std::logic_error);
}

TEST(Knn, ArityMismatchThrows) {
  Matrix X = {{0.0, 1.0}};
  Labels y = {0};
  KnnClassifier model;
  model.fit(X, y);
  const std::vector<double> bad = {0.0};
  EXPECT_THROW((void)model.predict_proba(bad), std::invalid_argument);
}

TEST(NaiveBayes, GaussianSeparatesBlobs) {
  const data::Dataset ds = data::make_two_gaussians(150, 4, 3.0, 63);
  NaiveBayesClassifier model;
  model.fit(ds.feature_matrix(), ds.labels());
  EXPECT_GT(model.accuracy(ds.feature_matrix(), ds.labels()), 0.97);
}

TEST(NaiveBayes, BernoulliOnBinaryFeatures) {
  Matrix X;
  Labels y;
  for (int i = 0; i < 100; ++i) {
    const int label = i % 2;
    X.push_back({static_cast<double>(label), static_cast<double>(i % 3 == 0)});
    y.push_back(label);
  }
  NaiveBayesClassifier model;
  model.fit(X, y);
  EXPECT_DOUBLE_EQ(model.accuracy(X, y), 1.0);
}

TEST(NaiveBayes, MixedFeatureTypes) {
  // Column 0 continuous, column 1 binary: both informative.
  Matrix X;
  Labels y;
  for (int i = 0; i < 100; ++i) {
    const int label = i % 2;
    X.push_back({label == 1 ? 5.0 + 0.01 * i : -5.0 - 0.01 * i,
                 static_cast<double>(label)});
    y.push_back(label);
  }
  NaiveBayesClassifier model;
  model.fit(X, y);
  EXPECT_DOUBLE_EQ(model.accuracy(X, y), 1.0);
}

TEST(NaiveBayes, SmoothingPreventsZeroProbabilities) {
  Matrix X = {{1.0}, {1.0}, {0.0}, {0.0}};
  Labels y = {1, 1, 0, 0};
  NaiveBayesClassifier model;
  model.fit(X, y);
  // An unseen combination must not produce a hard 0/1 posterior.
  const std::vector<double> q = {1.0};
  const double p = model.predict_proba(q);
  EXPECT_GT(p, 0.5);
  EXPECT_LT(p, 1.0);
}

TEST(NaiveBayes, SingleClassTrainingRejected) {
  Matrix X = {{1.0}, {2.0}};
  Labels y = {1, 1};
  NaiveBayesClassifier model;
  EXPECT_THROW(model.fit(X, y), std::invalid_argument);
}

TEST(NaiveBayes, NegativeAlphaRejected) {
  NaiveBayesConfig config;
  config.alpha = -1.0;
  EXPECT_THROW(NaiveBayesClassifier{config}, std::invalid_argument);
}

TEST(NaiveBayes, ForceBernoulliThresholdsContinuous) {
  NaiveBayesConfig config;
  config.force_bernoulli = true;
  Matrix X = {{0.9}, {0.8}, {0.1}, {0.2}};
  Labels y = {1, 1, 0, 0};
  NaiveBayesClassifier model(config);
  model.fit(X, y);
  const std::vector<double> hi = {0.95};
  const std::vector<double> lo = {0.05};
  EXPECT_EQ(model.predict(hi), 1);
  EXPECT_EQ(model.predict(lo), 0);
}

}  // namespace
}  // namespace hdc::ml
