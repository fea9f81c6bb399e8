// L2-regularised logistic regression, full-batch gradient descent with
// momentum on internally standardised features (mimicking the behaviour of a
// well-conditioned second-order solver such as scikit-learn's lbfgs).
#pragma once

#include <span>
#include <vector>

#include "ml/classifier.hpp"

namespace hdc::ml {

struct LogisticConfig {
  double c = 1.0;              // inverse regularisation strength (sklearn's C)
  std::size_t max_iter = 300;  // gradient steps
  double learning_rate = 0.5;
  double momentum = 0.9;
  double tol = 1e-6;  // stop when gradient norm falls below tol
  bool standardize = true;
};

class LogisticRegression final : public Classifier {
 public:
  explicit LogisticRegression(LogisticConfig config = {});

  /// Dense reference algorithm: standardises into a resident n*d matrix
  /// and runs one serial dot product and gradient row per sample. Raw
  /// features (d = 8 or 16) train here, and it is the oracle the packed
  /// path is tested against.
  void fit(const Matrix& X, const Labels& y) override;
  /// One-shard fit_shards(): the same algorithm and bit-identical state.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Packed algorithm, straight from the bits: moments come from integer
  /// popcounts merged across shards, and each gradient pass runs the
  /// simd select_dot/select_axpy kernels over row blocks of the resident
  /// shard, reading every 0/1 entry as its column's z0/z1 constant. Per
  /// row the logit is the same serial chain and grad[j] takes the rows in
  /// ascending order, so the result equals dense fit() on the same 0/1
  /// values bit for bit, at any shard count and on every SIMD tier.
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "Logistic Regression"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  /// Learned weights (in standardised space if standardize was on).
  [[nodiscard]] const std::vector<double>& weights() const noexcept { return w_; }
  [[nodiscard]] double bias() const noexcept { return b_; }

 private:
  /// Per-column standardised values of a 0 bit (z0) and a 1 bit (z1).
  struct BinaryZ {
    std::vector<double> z0;
    std::vector<double> z1;
  };

  /// Set mean_/inv_std_ from per-column ones-counts over n rows (all-zero
  /// counts when standardize is off) and return the 0/1 value table.
  BinaryZ binary_standardize(std::span<const std::size_t> pop, std::size_t n);

  /// Full-batch momentum descent over n rows of d standardised features.
  /// accumulate(grad, grad_b) adds one iteration's unscaled loss gradient
  /// into the zeroed grad[0..d) and grad_b, reading the current w_ and b_.
  template <typename AccumulateGradient>
  void run_gradient_descent(std::size_t n, std::size_t d,
                            const AccumulateGradient& accumulate);

  LogisticConfig config_;
  std::vector<double> w_;
  double b_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace hdc::ml
