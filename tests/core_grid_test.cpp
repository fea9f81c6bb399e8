#include "core/grid.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cv_oracle.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace hdc::core {
namespace {

// Reduced-but-complete grid: both paper datasets, the full nine-model zoo,
// 5-fold CV at dim 1000 — small enough for CI, wide enough that the
// pool actually interleaves fold encodes and fits across datasets.

data::Dataset small_pima() {
  data::PimaConfig config;
  config.n_negative = 80;
  config.n_positive = 40;
  config.inject_missing = false;
  config.seed = 11;
  return data::make_pima(config);
}

data::Dataset small_sylhet() { return data::make_sylhet({60, 90, 31}); }

GridConfig fast_grid() {
  GridConfig config;
  config.kfold = 5;
  config.experiment.extractor.dimensions = 1000;
  config.experiment.model_budget = 0.2;
  return config;
}

std::vector<GridDatasetSpec> specs(const data::Dataset& pima,
                                   const data::Dataset& sylhet) {
  return {{"pima", &pima}, {"sylhet", &sylhet}};
}

/// EXPECT_EQ (exact, not approximate) on every metric of two grid results.
void expect_identical(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.datasets.size(), b.datasets.size());
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    const GridDatasetResult& da = a.datasets[d];
    const GridDatasetResult& db = b.datasets[d];
    EXPECT_EQ(da.dataset, db.dataset);
    ASSERT_EQ(da.models.size(), db.models.size());
    for (std::size_t m = 0; m < da.models.size(); ++m) {
      EXPECT_EQ(da.models[m].model, db.models[m].model);
      EXPECT_EQ(da.models[m].cv.fold_accuracy, db.models[m].cv.fold_accuracy)
          << da.dataset << " / " << da.models[m].model;
      EXPECT_EQ(da.models[m].cv.mean_accuracy, db.models[m].cv.mean_accuracy)
          << da.dataset << " / " << da.models[m].model;
      EXPECT_EQ(da.models[m].cv.stddev_accuracy,
                db.models[m].cv.stddev_accuracy)
          << da.dataset << " / " << da.models[m].model;
    }
    ASSERT_EQ(da.has_nn, db.has_nn);
    if (da.has_nn) {
      EXPECT_EQ(da.nn.mean_test_accuracy, db.nn.mean_test_accuracy);
      EXPECT_EQ(da.nn.stddev_test_accuracy, db.nn.stddev_test_accuracy);
      EXPECT_EQ(da.nn.mean_val_accuracy, db.nn.mean_val_accuracy);
      EXPECT_EQ(da.nn.mean_epochs, db.nn.mean_epochs);
    }
  }
}

TEST(Grid, ScheduledMatchesSerialAtEveryThreadCount) {
  const data::Dataset pima = small_pima();
  const data::Dataset sylhet = small_sylhet();
  const auto ds = specs(pima, sylhet);

  GridConfig config = fast_grid();
  const GridResult serial = oracle::serial_grid(ds, config);

  config.threads = 1;
  const GridResult one = run_grid(ds, config);

  config.threads = 2;
  const GridResult two = run_grid(ds, config);

  config.threads = parallel::hardware_threads();
  const GridResult hw = run_grid(ds, config);

  expect_identical(serial, one);
  expect_identical(serial, two);
  expect_identical(serial, hw);
}

TEST(Grid, SerialCellMatchesKfoldDriver) {
  // A one-model grid on one worker is the serial per-model walk: its cell
  // equals the oracle's fold-by-fold CV of the same model.
  const data::Dataset sylhet = small_sylhet();
  GridConfig config = fast_grid();
  config.threads = 1;
  config.models = {"Logistic Regression"};
  const std::vector<GridDatasetSpec> ds = {{"sylhet", &sylhet}};
  const GridResult grid = run_grid(ds, config);
  const eval::CvResult direct =
      oracle::serial_kfold_cv(sylhet, "Logistic Regression", config.mode,
                              config.kfold, config.experiment);
  ASSERT_EQ(grid.datasets.size(), 1u);
  ASSERT_EQ(grid.datasets[0].models.size(), 1u);
  EXPECT_EQ(grid.datasets[0].models[0].cv.fold_accuracy, direct.fold_accuracy);
  EXPECT_EQ(grid.datasets[0].models[0].cv.mean_accuracy, direct.mean_accuracy);
  EXPECT_EQ(grid.datasets[0].models[0].cv.stddev_accuracy,
            direct.stddev_accuracy);
}

TEST(Grid, StatsReflectDagShapeAndDedup) {
  const data::Dataset pima = small_pima();
  const data::Dataset sylhet = small_sylhet();
  const auto ds = specs(pima, sylhet);
  GridConfig config = fast_grid();
  config.threads = 2;
  const GridResult r = run_grid(ds, config);

  const std::size_t n_models = r.datasets[0].models.size();
  EXPECT_EQ(n_models, 9u);  // the paper zoo
  EXPECT_EQ(r.stats.encode_tasks, 2u * config.kfold);
  EXPECT_EQ(r.stats.model_tasks, 2u * n_models * config.kfold);
  EXPECT_EQ(r.stats.nn_tasks, 0u);
  // One pool task per (dataset, fold, model); the reduce runs on the caller.
  EXPECT_EQ(r.stats.tasks_executed, r.stats.model_tasks);
  EXPECT_EQ(r.stats.workers, 2u);

  // Every model task reads its fold's shared encoding: one encode serves
  // zoo-many consumers, so the dedup ratio equals the model count.
  EXPECT_EQ(r.stats.cache_hits, r.stats.model_tasks);
  EXPECT_DOUBLE_EQ(r.stats.dedup_ratio, static_cast<double>(n_models));
  EXPECT_EQ(r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.steals, 0u);
}

TEST(Grid, EachFoldIsMaterialisedOnce) {
  // However the pool interleaves a fold's model tasks, only the first one
  // to run encodes it: the experiment.folds counter moves by datasets x k.
  const data::Dataset pima = small_pima();
  const data::Dataset sylhet = small_sylhet();
  const auto ds = specs(pima, sylhet);
  GridConfig config = fast_grid();
  config.models = {"KNN", "Logistic Regression", "Decision Tree"};
  config.nn.max_epochs = 5;
  config.nn.patience = 2;

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& folds = obs::counter("experiment.folds");
  for (const std::size_t nn_repeats : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      config.nn_repeats = nn_repeats;
      config.threads = threads;
      const std::uint64_t before = folds.value();
      const GridResult r = run_grid(ds, config);
      EXPECT_EQ(folds.value() - before, ds.size() * config.kfold)
          << threads << " workers, nn_repeats " << nn_repeats;
      EXPECT_EQ(r.stats.encode_tasks, ds.size() * config.kfold);
      EXPECT_EQ(r.stats.tasks_executed,
                r.stats.model_tasks + r.stats.nn_tasks);
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(Grid, NnProtocolTaskMatchesSerial) {
  const data::Dataset sylhet = small_sylhet();
  const std::vector<GridDatasetSpec> ds = {{"sylhet", &sylhet}};
  GridConfig config = fast_grid();
  config.models = {"KNN"};
  config.nn_repeats = 1;
  config.nn.max_epochs = 60;
  config.nn.patience = 5;

  const GridResult serial = oracle::serial_grid(ds, config);
  config.threads = 2;
  const GridResult sched = run_grid(ds, config);

  ASSERT_TRUE(serial.datasets[0].has_nn);
  expect_identical(serial, sched);
  EXPECT_EQ(sched.stats.nn_tasks, 1u);
}

TEST(Grid, RejectsBadInputs) {
  const data::Dataset sylhet = small_sylhet();
  GridConfig config = fast_grid();
  config.kfold = 1;
  const std::vector<GridDatasetSpec> ds = {{"sylhet", &sylhet}};
  EXPECT_THROW((void)run_grid(ds, config), std::invalid_argument);
  config = fast_grid();
  const std::vector<GridDatasetSpec> null_ds = {{"missing", nullptr}};
  EXPECT_THROW((void)run_grid(null_ds, config), std::invalid_argument);
  // Unknown model names must throw from the calling thread — scheduled
  // tasks are not allowed to throw, so validation happens eagerly.
  config = fast_grid();
  config.models = {"KNN", "no-such-model"};
  config.threads = 2;
  EXPECT_THROW((void)run_grid(ds, config), std::invalid_argument);
}

TEST(Grid, RejectsUnscheduledConfig) {
  // The serial walk lives only in the tests (cv_oracle.hpp); asking
  // run_grid for it is an error, not a silent scheduled run.
  const data::Dataset sylhet = small_sylhet();
  const std::vector<GridDatasetSpec> ds = {{"sylhet", &sylhet}};
  GridConfig config = fast_grid();
  config.models = {"KNN"};
  config.scheduled = false;
  EXPECT_THROW((void)run_grid(ds, config), std::invalid_argument);
}

}  // namespace
}  // namespace hdc::core
