// Support Vector Classifier trained with a simplified SMO solver
// (Platt 1998, simplified working-set selection). Supports linear and RBF
// kernels; gamma follows scikit-learn's "scale" heuristic by default.
#pragma once

#include <cstdint>

#include "ml/classifier.hpp"

namespace hdc::ml {

enum class SvmKernel { kLinear, kRbf };

struct SvcConfig {
  SvmKernel kernel = SvmKernel::kRbf;  // sklearn SVC default
  double c = 1.0;
  /// gamma <= 0 selects the "scale" heuristic: 1 / (d * var(X)).
  double gamma = -1.0;
  double tol = 1e-3;
  std::size_t max_passes = 5;  // passes without alpha change before stopping
  std::size_t max_iter = 300;  // hard cap on outer sweeps
  /// Standardise features internally (the usual scaler+SVC pipeline). With
  /// raw clinical features one wide column (age, insulin) otherwise swamps
  /// the RBF distance and the model degenerates to the majority class.
  bool standardize = true;
  std::uint64_t seed = 11;
};

class SvcClassifier final : public Classifier {
 public:
  explicit SvcClassifier(SvcConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  /// One-shard fit_shards() with every row kept, bit-identical to fit() on
  /// the same 0/1 values.
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// Sharded fit: standardisation moments come from whole-cohort integer
  /// popcounts merged across shards; the SMO kernel matrix (inherently
  /// O(rows^2)) is built over a deterministic strided subsample of
  /// kShardSubsampleRows rows. Both choices are pure functions of the row
  /// sequence, so the fit is bit-identical at any shard count — and equals
  /// fit_bits() exactly whenever rows <= kShardSubsampleRows.
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "SVC"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  /// Signed distance to the separating surface.
  [[nodiscard]] double decision(std::span<const double> x) const;
  [[nodiscard]] std::size_t support_vector_count() const noexcept;

 private:
  /// gamma heuristic + kernel matrix + SMO over the already-populated
  /// train_X_/targets_ members. `bits` (may be null) lets the RBF kernel
  /// matrix come from XOR bit-planes instead of dense row pairs.
  void solve_smo(const hv::BitMatrix* bits);
  /// Whole-source moments, then the SMO over a strided subsample of at
  /// most `cap` rows (fit_bits passes every row).
  void fit_subsample(const ShardSource& src, std::size_t cap);
  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;
  [[nodiscard]] std::vector<double> standardized(std::span<const double> x) const;

  SvcConfig config_;
  double gamma_ = 1.0;
  Matrix train_X_;  // standardised copies when config_.standardize
  std::vector<double> targets_;  // +/-1
  std::vector<double> alphas_;
  double b_ = 0.0;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace hdc::ml
