#include "core/hybrid.hpp"

#include <stdexcept>

#include "hv/bit_matrix.hpp"

namespace hdc::core {

HybridModel::HybridModel(ExtractorConfig extractor_config,
                         std::unique_ptr<ml::Classifier> downstream)
    : extractor_(extractor_config), downstream_(std::move(downstream)) {
  if (downstream_ == nullptr) {
    throw std::invalid_argument("HybridModel: null downstream classifier");
  }
}

void HybridModel::fit(const data::Dataset& train) {
  extractor_.fit(train);
  // Hypervector features are 0/1, so hand the downstream model the
  // bit-packed design matrix directly; it never sees a dense double copy.
  downstream_->fit_bits(extractor_.transform_bits(train), train.labels());
  fitted_ = true;
}

int HybridModel::predict(std::span<const double> row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

double HybridModel::predict_proba(std::span<const double> row) const {
  if (!fitted_) throw std::logic_error("HybridModel: not fitted");
  return downstream_->predict_proba(extractor_.encode_row(row).to_doubles());
}

std::vector<int> HybridModel::predict_all(const data::Dataset& ds) const {
  if (!fitted_) throw std::logic_error("HybridModel: not fitted");
  return downstream_->predict_all_bits(extractor_.transform_bits(ds));
}

eval::BinaryMetrics HybridModel::evaluate(const data::Dataset& test) const {
  return eval::compute_metrics(test.labels(), predict_all(test));
}

}  // namespace hdc::core
