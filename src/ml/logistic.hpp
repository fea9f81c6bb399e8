// L2-regularised logistic regression, full-batch gradient descent with
// momentum on internally standardised features (mimicking the behaviour of a
// well-conditioned second-order solver such as scikit-learn's lbfgs).
#pragma once

#include <cstdint>
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

  void fit(const Matrix& X, const Labels& y) override;
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Exact sharded fit: moments come from integer popcounts merged across
  /// shards, and each gradient pass streams the shards in ascending global
  /// row order expanding rows through the same 2-entry z0/z1 table — the
  /// identical IEEE op sequence as fit_bits() on the concatenated matrix,
  /// so the result is bit-identical at any shard count.
  void fit_shards(const ShardSource& src,
                  const ShardedFitOptions& options) override;
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
    /// Standardised values of one packed row into out[0..d).
    void expand(const std::uint64_t* row, double* out) const;
  };

  /// Set mean_/inv_std_ from per-column ones-counts over n rows (all-zero
  /// counts when standardize is off) and return the 0/1 value table.
  BinaryZ binary_standardize(std::span<const std::size_t> pop, std::size_t n);

  /// Full-batch momentum descent over n rows of d standardised values.
  /// for_each_row(visit) must call visit(const double* z_row, int label)
  /// once per row in ascending row order.
  template <typename ForEachRow>
  void run_gradient_descent(std::size_t n, std::size_t d,
                            const ForEachRow& for_each_row);

  LogisticConfig config_;
  std::vector<double> w_;
  double b_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace hdc::ml
