#include "eval/cross_validation.hpp"

#include <cmath>
#include <stdexcept>

#include "hv/search.hpp"

namespace hdc::eval {

CvResult summarize_folds(std::vector<double> fold_accuracy) {
  CvResult result;
  result.fold_accuracy = std::move(fold_accuracy);
  const double k = static_cast<double>(result.fold_accuracy.size());
  double sum = 0.0;
  for (const double a : result.fold_accuracy) sum += a;
  result.mean_accuracy = sum / k;
  double var = 0.0;
  for (const double a : result.fold_accuracy) {
    const double diff = a - result.mean_accuracy;
    var += diff * diff;
  }
  result.stddev_accuracy = std::sqrt(var / k);
  return result;
}

LoocvResult hamming_loocv(const std::vector<hv::BitVector>& vectors,
                          const std::vector<int>& labels,
                          parallel::ThreadPool* pool) {
  if (vectors.size() != labels.size() || vectors.size() < 2) {
    throw std::invalid_argument("hamming_loocv: need >= 2 labelled vectors");
  }
  hv::SearchOptions options;
  options.pool = pool;
  const std::vector<hv::Neighbor> nearest = hv::loo_nearest_neighbors(vectors, options);
  LoocvResult result;
  result.predictions.reserve(nearest.size());
  for (const hv::Neighbor& n : nearest) result.predictions.push_back(labels[n.index]);
  result.metrics = compute_metrics(labels, result.predictions);
  return result;
}

}  // namespace hdc::eval
