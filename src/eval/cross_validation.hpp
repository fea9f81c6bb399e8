// Cross-validation drivers.
//
// The generic `kfold_run` hands each fold's train/test index sets to a
// caller-provided runner, which lets the HDC experiments re-fit the feature
// extractor on each fold's training rows (no encoding leakage across folds).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "eval/metrics.hpp"
#include "hv/bitvector.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::eval {

struct CvResult {
  std::vector<double> fold_accuracy;
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
};

/// Aggregate per-fold scores into a CvResult (population stddev), summing in
/// the order given. kfold_run() and the grid runner's reduce tasks
/// (core/grid) both go through this, so their statistics are bit-identical
/// for the same fold scores.
[[nodiscard]] CvResult summarize_folds(std::vector<double> fold_accuracy);

/// Stratified k-fold; `run_fold(train_indices, test_indices)` returns the
/// fold's accuracy (or any score to aggregate).
[[nodiscard]] CvResult kfold_run(
    const std::vector<int>& labels, std::size_t k, std::uint64_t seed,
    const std::function<double(std::span<const std::size_t>,
                               std::span<const std::size_t>)>& run_fold);

struct LoocvResult {
  std::vector<int> predictions;  // per-row 1-NN label among all other rows
  BinaryMetrics metrics;
};

/// Leave-one-out 1-NN Hamming cross-validation over precomputed patient
/// hypervectors (the paper's validation protocol for its pure HDC model),
/// run through the blocked search kernel in hv/search. Distance ties resolve
/// to the lowest row index; results are identical for any `pool`.
[[nodiscard]] LoocvResult hamming_loocv(const std::vector<hv::BitVector>& vectors,
                                        const std::vector<int>& labels,
                                        parallel::ThreadPool* pool = nullptr);

}  // namespace hdc::eval
