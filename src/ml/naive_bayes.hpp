// Naive Bayes classifiers: Gaussian (continuous features) and Bernoulli
// (binary / hypervector features). Used by the Sylhet source paper as one of
// its four baseline models; included here for the extended comparisons.
#pragma once

#include "ml/classifier.hpp"

namespace hdc::ml {

struct NaiveBayesConfig {
  /// Laplace/Lidstone smoothing for Bernoulli likelihoods.
  double alpha = 1.0;
  /// Variance floor fraction for Gaussian likelihoods (sklearn's
  /// var_smoothing is 1e-9 * max variance).
  double var_smoothing = 1e-9;
  /// If true, every feature is treated as Bernoulli regardless of values.
  bool force_bernoulli = false;
};

class NaiveBayesClassifier final : public Classifier {
 public:
  explicit NaiveBayesClassifier(NaiveBayesConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// One-shard fit_shards(): class-masked popcounts straight off the
  /// bitplanes, no dense expansion.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Exact sharded fit: per-class counts and per-feature ones-counts are
  /// integers (masked popcounts) merged across shards by addition, and on
  /// 0/1 data the dense path's sum / sum-of-squares accumulators are those
  /// same integers — so this matches fit() bit for bit at any shard count.
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "Naive Bayes"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 private:
  NaiveBayesConfig config_;
  std::vector<bool> bernoulli_;              // per-feature model choice
  double log_prior_[2] = {0.0, 0.0};
  std::vector<double> mean_[2];              // Gaussian params per class
  std::vector<double> var_[2];
  std::vector<double> log_p_one_[2];         // Bernoulli params per class
  std::vector<double> log_p_zero_[2];
  std::size_t n_features_ = 0;
};

}  // namespace hdc::ml
