// Serial walk of the paper's k-fold protocol: the oracle core::run_grid's
// pool tasks are checked against.
//
// One model, one fold at a time, every fold re-encoded for every model:
// StratifiedKFold -> materialize_fold -> fit_fold_model -> fold_accuracy ->
// summarize_folds. run_grid must match it EXPECT_EQ at every worker count.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "data/split.hpp"
#include "eval/cross_validation.hpp"
#include "ml/zoo.hpp"

namespace hdc::oracle {

/// Stratified k-fold CV accuracy of one zoo model. `allow_packed = false`
/// hands every fold to fit() on dense doubles instead of fit_bits().
inline eval::CvResult serial_kfold_cv(const data::Dataset& ds,
                                      const std::string& model_name,
                                      core::InputMode mode, std::size_t k,
                                      const core::ExperimentConfig& config,
                                      bool allow_packed = true) {
  const data::StratifiedKFold folds(ds.labels(), k, config.seed);
  std::vector<double> scores;
  for (std::size_t f = 0; f < k; ++f) {
    const core::FoldData fold = core::materialize_fold(
        ds, folds.fold_train(f), folds.fold_test(f), mode, config, allow_packed);
    const auto model = ml::make_model(model_name, config.model_budget);
    core::fit_fold_model(*model, fold);
    scores.push_back(core::fold_accuracy(*model, fold));
  }
  return eval::summarize_folds(std::move(scores));
}

/// The whole grid, walked serially: every (dataset, model) cell through
/// serial_kfold_cv, then the NN protocol per dataset when asked for.
inline core::GridResult serial_grid(std::span<const core::GridDatasetSpec> datasets,
                                    const core::GridConfig& config) {
  std::vector<std::string> models = config.models;
  if (models.empty()) {
    for (const ml::ZooEntry& entry : ml::paper_model_zoo()) models.push_back(entry.name);
  }
  core::GridResult result;
  for (const core::GridDatasetSpec& spec : datasets) {
    core::GridDatasetResult cell;
    cell.dataset = spec.name;
    for (const std::string& model : models) {
      cell.models.push_back({model, serial_kfold_cv(*spec.data, model, config.mode,
                                                    config.kfold, config.experiment)});
    }
    if (config.nn_repeats > 0) {
      cell.has_nn = true;
      cell.nn = core::nn_protocol(*spec.data, config.mode, config.nn_repeats,
                                  config.experiment, config.nn);
    }
    result.datasets.push_back(std::move(cell));
  }
  return result;
}

}  // namespace hdc::oracle
