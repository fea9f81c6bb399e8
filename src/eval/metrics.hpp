// Binary classification metrics, matching the paper's Tables IV/V columns:
// precision, recall, specificity, F1 score, testing accuracy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hdc::eval {

struct ConfusionMatrix {
  std::size_t tp = 0;
  std::size_t tn = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;

  [[nodiscard]] std::size_t total() const noexcept { return tp + tn + fp + fn; }
};

struct BinaryMetrics {
  ConfusionMatrix confusion;
  double accuracy = 0.0;
  double precision = 0.0;    // tp / (tp + fp)
  double recall = 0.0;       // tp / (tp + fn), a.k.a. sensitivity
  double specificity = 0.0;  // tn / (tn + fp)
  double f1 = 0.0;           // harmonic mean of precision and recall
};

/// Tally the confusion matrix and derive every metric from it (0/0 ratios
/// evaluate to 0). Labels and predictions must be 0/1 and the same length.
[[nodiscard]] BinaryMetrics compute_metrics(const std::vector<int>& y_true,
                                            const std::vector<int>& y_pred);

/// Fraction of equal entries.
[[nodiscard]] double accuracy(const std::vector<int>& y_true,
                              const std::vector<int>& y_pred);

}  // namespace hdc::eval
