// Cross-validation results and the Hamming leave-one-out driver. The k-fold
// protocol itself runs in core/grid (run_grid), which re-fits the feature
// extractor on each fold's training rows (no encoding leakage across folds).
#pragma once

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
/// the order given. The grid runner's reduce tasks (core/grid) go through
/// this, so equal fold scores always give bit-identical statistics.
[[nodiscard]] CvResult summarize_folds(std::vector<double> fold_accuracy);

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
