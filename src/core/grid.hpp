// Experiment-grid runner: the paper's full evaluation sweep on one pool.
//
// Tables III–V evaluate the datasets × the 9-model zoo (+ the 2×32 ReLU
// Sequential NN) under stratified k-fold CV, re-fitting the HDC extractor
// on every fold's training rows. run_grid is the library's only k-fold
// driver: Table III, bench_grid, `hdc_cli grid` and the e2ebench
// `grid_paper` workload all call it. It submits the protocol straight onto
// a dedicated parallel::ThreadPool:
//
//   nn(dataset d)                  one task per dataset when nn_repeats > 0
//                                  (the Sequential NN protocol is its own
//                                  repeated-holdout loop, not k-fold)
//   fit(d, fold f, model m)        one task per (d, f, m), in that order;
//                                  the first task of (d, f) to run
//                                  materialises the fold into its slot
//                                  (std::call_once), every task fits a fresh
//                                  model on it and scores the test rows, and
//                                  the last one to finish drops the fold
//
// Each (d, f) has one pre-indexed slot, so a fold is encoded exactly once
// and lives only while its model tasks run. After the pool drains, the
// calling thread folds each (d, m)'s k scores into a CvResult in fold order
// via summarize_folds().
//
// Determinism: every task derives its randomness from seeds fixed before
// submission, tasks write disjoint cells of a pre-sized score array, and the
// reduce reads it in fold order — so the grid's metrics are identical for
// every worker count. The tests hold them EXPECT_EQ against a serial walk of
// the same folds (tests/cv_oracle.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/dataset.hpp"
#include "eval/cross_validation.hpp"
#include "nn/sequential.hpp"

namespace hdc::core {

/// One dataset entering the grid; `name` labels its results.
struct GridDatasetSpec {
  std::string name;
  const data::Dataset* data = nullptr;
};

struct GridConfig {
  /// Zoo model names (ml::make_model keys). Empty = the paper's nine.
  std::vector<std::string> models;
  std::size_t kfold = 10;
  InputMode mode = InputMode::kHypervectors;
  ExperimentConfig experiment;
  /// Worker count of the grid's dedicated pool. 0 = hardware_threads().
  std::size_t threads = 0;
  /// Must stay true: run_grid throws std::invalid_argument on false. The
  /// field remains only because e2ebench/grid_workload.cpp assigns it.
  bool scheduled = true;
  /// Sequential-NN repeats per dataset; 0 skips the NN rows.
  std::size_t nn_repeats = 0;
  nn::SequentialConfig nn;
};

struct GridModelResult {
  std::string model;
  eval::CvResult cv;
};

struct GridDatasetResult {
  std::string dataset;
  std::vector<GridModelResult> models;  // in GridConfig::models order
  bool has_nn = false;
  NnProtocolResult nn;
};

/// Scheduling observability for one grid run. Purely informational — never
/// feeds back into the metrics.
struct GridStats {
  /// Folds materialised (one per (dataset, fold)).
  std::size_t encode_tasks = 0;
  std::size_t model_tasks = 0;
  std::size_t nn_tasks = 0;
  /// Fold reads served from a slot: one per model task.
  std::uint64_t cache_hits = 0;
  /// Fold reads per materialised fold (the model count).
  double dedup_ratio = 0.0;
  /// Pool tasks completed: model_tasks + nn_tasks.
  std::uint64_t tasks_executed = 0;
  /// Always 0. cache_misses and steals stay only because the e2ebench
  /// grid_paper workload (e2ebench/grid_workload.cpp) reads them.
  std::uint64_t cache_misses = 0;
  std::uint64_t steals = 0;
  std::size_t workers = 1;
};

struct GridResult {
  std::vector<GridDatasetResult> datasets;  // in input order
  GridStats stats;
  /// Provenance for the whole sweep: dataset names comma-joined in input
  /// order, dataset_hash mixed across them, threads = scheduler workers.
  RunManifest manifest;
};

/// Run the grid over `datasets` on a dedicated pool of config.threads
/// workers. Metrics are identical across worker counts. Throws
/// std::invalid_argument on kfold < 2, a null dataset, an unknown model
/// name or scheduled == false, before any task runs.
[[nodiscard]] GridResult run_grid(std::span<const GridDatasetSpec> datasets,
                                  const GridConfig& config);

}  // namespace hdc::core
