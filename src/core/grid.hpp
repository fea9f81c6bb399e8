// Experiment-grid runner: the paper's full evaluation sweep as one DAG.
//
// Tables III–V evaluate the datasets × the 9-model zoo (+ the 2×32 ReLU
// Sequential NN) under stratified k-fold CV, re-fitting the HDC extractor
// on every fold's training rows. run_grid is the library's only k-fold
// driver: Table III, bench_grid, `hdc_cli grid` and the e2ebench
// `grid_paper` workload all call it. It expresses the protocol as a
// parallel::TaskGraph:
//
//   encode(dataset d, fold f)            one task per (d, f); materialises
//        |                               the fold via materialize_fold()
//        |                               into the FoldEncodingCache
//        v
//   fit/eval(d, model m, fold f)         one task per (d, m, f); acquires
//        |                               the cached fold, fits a fresh
//        v                               model, scores the test rows
//   reduce(d, m)                         one task per (d, m); folds the k
//                                        scores into a CvResult in fixed
//                                        fold order via summarize_folds()
//
// plus one nn(d) task per dataset when nn_repeats > 0 (the Sequential NN
// protocol is its own repeated-holdout loop, not k-fold).
//
// Determinism: every task derives its randomness from seeds fixed at graph
// construction, tasks only communicate through their dependency edges, and
// reduces read fold scores from a pre-indexed array in fold order — so the
// grid's metrics are identical for every worker count. The tests hold them
// EXPECT_EQ against a serial walk of the same folds (tests/cv_oracle.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/dataset.hpp"
#include "eval/cross_validation.hpp"
#include "nn/sequential.hpp"

namespace hdc::core {

/// One dataset entering the grid. `name` doubles as the fold-cache dataset
/// id, so distinct datasets must get distinct names.
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
  /// Worker count (the grid's dedicated pool + task-graph width).
  /// 0 = hardware_threads().
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

/// Scheduler / cache observability for one grid run. Purely informational —
/// never feeds back into the metrics.
struct GridStats {
  std::size_t encode_tasks = 0;
  std::size_t model_tasks = 0;
  std::size_t reduce_tasks = 0;
  std::size_t nn_tasks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_peak_entries = 0;
  /// Fold consumers per encode task (the model count).
  double dedup_ratio = 0.0;
  std::uint64_t tasks_executed = 0;
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
