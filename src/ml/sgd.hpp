// Linear classifier trained by stochastic gradient descent, after
// scikit-learn's SGDClassifier. Deliberately does NOT standardise its inputs:
// SGD on raw, unscaled clinical features is poorly conditioned, which is
// exactly why the paper's Tables III-V show the largest hypervector gains for
// SGD (hypervector inputs are uniformly 0/1 and thus well scaled).
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"

namespace hdc::ml {

enum class SgdLoss { kHinge, kLog };

struct SgdConfig {
  SgdLoss loss = SgdLoss::kHinge;     // sklearn default
  double alpha = 1e-4;                // L2 strength (sklearn default)
  std::size_t epochs = 20;
  /// Base step of the 1/t decay. Calibrated so that on raw (unscaled)
  /// clinical features the model lands near the majority-class accuracy —
  /// the behaviour scikit-learn's SGDClassifier shows in the paper's Table
  /// III — while still fitting homogeneous 0/1 hypervector inputs well.
  double eta0 = 1e-5;
  std::uint64_t seed = 7;
};

class SgdClassifier final : public Classifier {
 public:
  explicit SgdClassifier(SgdConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// The same shuffled epoch loop over the set bits, bit-identical to fit().
  /// fit_shards() is the Classifier default: this loop on a strided
  /// subsample of at most kShardSubsampleRows rows.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "SGD"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  [[nodiscard]] const std::vector<double>& weights() const noexcept { return w_; }
  [[nodiscard]] double bias() const noexcept { return b_; }

 private:
  [[nodiscard]] double decision(std::span<const double> x) const;

  SgdConfig config_;
  std::vector<double> w_;
  double b_ = 0.0;
};

}  // namespace hdc::ml
