// K-nearest-neighbours classifier (Euclidean distance, majority vote).
//
// fit_bits() (hypervector features) retains the rows bit-packed, and squared
// Euclidean distance is answered as a Hamming distance through the simd
// dispatch table — for 0/1 data the two are the same exact integer, so
// neighbour sets and votes are bit-identical to the dense path.
#pragma once

#include "hv/bit_matrix.hpp"
#include "ml/classifier.hpp"

namespace hdc::ml {

struct KnnConfig {
  std::size_t k = 5;  // scikit-learn default
  /// If true, neighbours vote with weight 1/distance (ties toward closer).
  bool distance_weighted = false;
};

class KnnClassifier final : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig config = {});

  void fit(const Matrix& X, const Labels& y) override;
  void fit_bits(const hv::BitMatrix& X, const Labels& y) override;
  /// k-NN *is* its training set, so the sharded fit concatenates every
  /// shard's rows in global order and stores them packed — trivially
  /// shard-count invariant, but inherently O(n) resident (excluded from
  /// the out-of-core streaming phase for that reason).
  void fit_shards(const ShardSource& src) override;
  [[nodiscard]] double predict_proba(std::span<const double> x) const override;
  [[nodiscard]] std::vector<int> predict_all_bits(const hv::BitMatrix& X) const override;
  [[nodiscard]] std::string name() const override { return "KNN"; }

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 private:
  [[nodiscard]] double vote(std::vector<std::pair<double, int>>& dist) const;

  KnnConfig config_;
  Matrix train_X_;             // dense store (non-binary training data)
  hv::BitMatrix train_bits_;   // packed store (binary training data)
  Labels train_y_;
};

}  // namespace hdc::ml
