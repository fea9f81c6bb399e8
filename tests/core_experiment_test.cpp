#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/grid.hpp"

#include "data/preprocess.hpp"
#include "data/synthetic.hpp"

namespace hdc::core {
namespace {

ExperimentConfig fast_config() {
  ExperimentConfig config;
  config.extractor.dimensions = 1000;
  config.model_budget = 0.2;
  return config;
}

data::Dataset small_sylhet() { return data::make_sylhet({60, 90, 31}); }

/// Stratified k-fold CV of one model on one dataset, through run_grid.
eval::CvResult kfold_cv(const data::Dataset& ds, const std::string& model,
                        InputMode mode, std::size_t k) {
  const std::vector<GridDatasetSpec> specs = {{"ds", &ds}};
  GridConfig config;
  config.models = {model};
  config.kfold = k;
  config.mode = mode;
  config.experiment = fast_config();
  return run_grid(specs, config).datasets.front().models.front().cv;
}

TEST(Experiment, InputModeNames) {
  EXPECT_EQ(to_string(InputMode::kRawFeatures), "Features");
  EXPECT_EQ(to_string(InputMode::kHypervectors), "Hypervectors");
}

TEST(Experiment, KfoldRawFeaturesBeatsChance) {
  const auto cv = kfold_cv(small_sylhet(), "Decision Tree", InputMode::kRawFeatures, 5);
  EXPECT_EQ(cv.fold_accuracy.size(), 5u);
  EXPECT_GT(cv.mean_accuracy, 0.75);
}

TEST(Experiment, KfoldHypervectorsBeatsChance) {
  const auto cv =
      kfold_cv(small_sylhet(), "Logistic Regression", InputMode::kHypervectors, 5);
  EXPECT_GT(cv.mean_accuracy, 0.75);
}

TEST(Experiment, KfoldIsDeterministic) {
  const data::Dataset ds = small_sylhet();
  const auto a = kfold_cv(ds, "KNN", InputMode::kRawFeatures, 5);
  const auto b = kfold_cv(ds, "KNN", InputMode::kRawFeatures, 5);
  EXPECT_EQ(a.fold_accuracy, b.fold_accuracy);
}

TEST(Experiment, HoldoutMetricsComplete) {
  const auto m = holdout_metrics(small_sylhet(), "Random Forest",
                                 InputMode::kHypervectors, 0.2, fast_config());
  EXPECT_GT(m.accuracy, 0.7);
  EXPECT_GT(m.f1, 0.7);
  EXPECT_EQ(m.confusion.total(), 30u);  // 20% of 150
}

TEST(Experiment, HammingLooOnSylhet) {
  const auto m = hamming_loo(small_sylhet(), fast_config());
  EXPECT_GT(m.accuracy, 0.8);
}

TEST(Experiment, HammingLooOnPimaR) {
  const data::Dataset pima_r =
      data::remove_missing_rows(data::make_pima({200, 104, true, 0.05, 32}));
  const auto m = hamming_loo(pima_r, fast_config());
  EXPECT_GT(m.accuracy, 0.55);  // paper: ~0.71 at full size
  EXPECT_LT(m.accuracy, 0.95);  // Pima R is genuinely hard
}

TEST(Experiment, NnProtocolRuns) {
  nn::SequentialConfig nn_config;
  nn_config.max_epochs = 40;
  nn_config.patience = 8;
  const auto result = nn_protocol(small_sylhet(), InputMode::kRawFeatures, 2,
                                  fast_config(), nn_config);
  EXPECT_GT(result.mean_test_accuracy, 0.6);
  EXPECT_GT(result.mean_epochs, 0.0);
  EXPECT_LE(result.mean_epochs, 40.0);
}

TEST(Experiment, NnProtocolZeroRepeatsThrows) {
  EXPECT_THROW((void)nn_protocol(small_sylhet(), InputMode::kRawFeatures, 0,
                                 fast_config()),
               std::invalid_argument);
}

TEST(Experiment, UnknownModelNamePropagates) {
  EXPECT_THROW((void)kfold_cv(small_sylhet(), "NoSuchModel", InputMode::kRawFeatures, 5),
               std::invalid_argument);
}

TEST(Experiment, PimaMEasierThanPimaR) {
  // The class-median imputation leak: every model family finds Pima M easier
  // than Pima R. Check with the cheap KNN.
  const data::Dataset raw = data::make_pima({250, 134, true, 0.05, 33});
  const data::Dataset pima_r = data::remove_missing_rows(raw);
  const data::Dataset pima_m = data::impute_class_median(raw);
  const auto cv_r = kfold_cv(pima_r, "KNN", InputMode::kRawFeatures, 5);
  const auto cv_m = kfold_cv(pima_m, "KNN", InputMode::kRawFeatures, 5);
  EXPECT_GT(cv_m.mean_accuracy + 0.03, cv_r.mean_accuracy);
}

}  // namespace
}  // namespace hdc::core
