#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"

namespace hdc::nn {
namespace {

SequentialConfig fast_config() {
  SequentialConfig config;
  config.max_epochs = 200;
  config.patience = 10;
  return config;
}

TEST(Sequential, LearnsSeparableBlobs) {
  const data::Dataset ds = data::make_two_gaussians(100, 4, 4.0, 81);
  Sequential net(fast_config());
  net.fit(ds.feature_matrix(), ds.labels());
  EXPECT_GT(net.accuracy(ds.feature_matrix(), ds.labels()), 0.95);
}

TEST(Sequential, LearnsXor) {
  const data::Dataset ds = data::make_xor(60, 0.2, 82);
  SequentialConfig config = fast_config();
  config.max_epochs = 400;
  Sequential net(config);
  net.fit(ds.feature_matrix(), ds.labels());
  EXPECT_GT(net.accuracy(ds.feature_matrix(), ds.labels()), 0.9);
}

TEST(Sequential, EarlyStoppingTriggers) {
  const data::Dataset ds = data::make_two_gaussians(60, 3, 5.0, 83);
  SequentialConfig config;
  config.max_epochs = 1000;
  config.patience = 5;
  Sequential net(config);
  net.fit(ds.feature_matrix(), ds.labels());
  // An easy problem converges long before 1000 epochs.
  EXPECT_TRUE(net.history().early_stopped);
  EXPECT_LT(net.history().train_loss.size(), 1000u);
}

TEST(Sequential, HistoryTracksLosses) {
  const data::Dataset ds = data::make_two_gaussians(50, 3, 3.0, 84);
  Sequential net(fast_config());
  net.fit(ds.feature_matrix(), ds.labels());
  const TrainHistory& h = net.history();
  ASSERT_FALSE(h.train_loss.empty());
  ASSERT_EQ(h.train_loss.size(), h.val_loss.size());
  EXPECT_LT(h.best_epoch, h.train_loss.size());
  // Loss should drop substantially from the first epoch.
  EXPECT_LT(h.train_loss.back(), h.train_loss.front());
}

TEST(Sequential, ExplicitValidationSetProtocol) {
  const data::Dataset train = data::make_two_gaussians(80, 3, 3.0, 85);
  const data::Dataset val = data::make_two_gaussians(20, 3, 3.0, 86);
  Sequential net(fast_config());
  const TrainHistory h = net.fit_with_validation(
      train.feature_matrix(), train.labels(), val.feature_matrix(), val.labels());
  EXPECT_FALSE(h.val_loss.empty());
  EXPECT_GT(net.accuracy(val.feature_matrix(), val.labels()), 0.9);
}

TEST(Sequential, PredictProbaBatchMatchesSingle) {
  const data::Dataset ds = data::make_two_gaussians(40, 3, 2.0, 87);
  Sequential net(fast_config());
  net.fit(ds.feature_matrix(), ds.labels());
  const auto batch = net.predict_proba_batch(ds.feature_matrix());
  ASSERT_EQ(batch.size(), ds.n_rows());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(batch[i], net.predict_proba(ds.row(i)), 1e-12);
  }
}

TEST(Sequential, DeterministicPerSeed) {
  const data::Dataset ds = data::make_two_gaussians(50, 3, 2.0, 88);
  Sequential a(fast_config());
  Sequential b(fast_config());
  a.fit(ds.feature_matrix(), ds.labels());
  b.fit(ds.feature_matrix(), ds.labels());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_proba(ds.row(i)), b.predict_proba(ds.row(i)));
  }
}

TEST(Sequential, ParameterCountMatchesArchitecture) {
  SequentialConfig config;
  config.hidden = {32, 32};
  Sequential net(config);
  const data::Dataset ds = data::make_two_gaussians(30, 8, 3.0, 89);
  net.fit(ds.feature_matrix(), ds.labels());
  // 8*32+32 + 32*32+32 + 32*1+1 = 288 + 1056 + 33 = 1377.
  EXPECT_EQ(net.parameter_count(), 1377u);
}

TEST(Sequential, NotFittedThrows) {
  const Sequential net;
  const std::vector<double> x = {0.0};
  EXPECT_THROW((void)net.predict_proba(x), std::logic_error);
}

TEST(Sequential, QueryArityMismatchThrows) {
  const data::Dataset ds = data::make_two_gaussians(30, 3, 3.0, 90);
  Sequential net(fast_config());
  net.fit(ds.feature_matrix(), ds.labels());
  const std::vector<double> bad = {1.0};
  EXPECT_THROW((void)net.predict_proba(bad), std::invalid_argument);
}

TEST(Sequential, RejectsBadConfig) {
  SequentialConfig config;
  config.hidden = {};
  EXPECT_THROW(Sequential{config}, std::invalid_argument);
  config = SequentialConfig{};
  config.max_epochs = 0;
  EXPECT_THROW(Sequential{config}, std::invalid_argument);
  config = SequentialConfig{};
  config.batch_size = 0;
  EXPECT_THROW(Sequential{config}, std::invalid_argument);
}

}  // namespace
}  // namespace hdc::nn
