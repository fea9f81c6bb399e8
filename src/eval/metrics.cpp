#include "eval/metrics.hpp"

#include <stdexcept>

namespace hdc::eval {

namespace {

ConfusionMatrix confusion_matrix(const std::vector<int>& y_true,
                                 const std::vector<int>& y_pred) {
  if (y_true.size() != y_pred.size()) {
    throw std::invalid_argument("confusion_matrix: size mismatch");
  }
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const int t = y_true[i];
    const int p = y_pred[i];
    if ((t != 0 && t != 1) || (p != 0 && p != 1)) {
      throw std::invalid_argument("confusion_matrix: labels must be 0/1");
    }
    if (t == 1) {
      (p == 1 ? cm.tp : cm.fn)++;
    } else {
      (p == 0 ? cm.tn : cm.fp)++;
    }
  }
  return cm;
}

double ratio(std::size_t num, std::size_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

BinaryMetrics metrics_from_confusion(const ConfusionMatrix& cm) {
  BinaryMetrics m;
  m.confusion = cm;
  m.accuracy = ratio(cm.tp + cm.tn, cm.total());
  m.precision = ratio(cm.tp, cm.tp + cm.fp);
  m.recall = ratio(cm.tp, cm.tp + cm.fn);
  m.specificity = ratio(cm.tn, cm.tn + cm.fp);
  m.f1 = (m.precision + m.recall) > 0.0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  return m;
}

}  // namespace

BinaryMetrics compute_metrics(const std::vector<int>& y_true,
                              const std::vector<int>& y_pred) {
  return metrics_from_confusion(confusion_matrix(y_true, y_pred));
}

double accuracy(const std::vector<int>& y_true, const std::vector<int>& y_pred) {
  if (y_true.size() != y_pred.size()) {
    throw std::invalid_argument("accuracy: size mismatch");
  }
  if (y_true.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == y_pred[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(y_true.size());
}

}  // namespace hdc::eval
