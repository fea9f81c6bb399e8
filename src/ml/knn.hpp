// K-nearest-neighbours classifier (Euclidean distance, majority vote).
//
// fit_bits() (hypervector features) retains the rows bit-packed, and 0/1
// queries are answered by the shared Hamming engine (hv::top_k_neighbors):
// for 0/1 data squared Euclidean distance is the same exact integer as the
// Hamming distance. The dense vote takes the k smallest (distance, label)
// pairs; the packed store keeps label-0 rows first, so the engine's
// (distance, index) order picks the same pairs and every vote is
// bit-identical to the dense path.
#pragma once

#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "ml/classifier.hpp"

namespace hdc::ml {

struct KnnConfig {
  std::size_t k = 5;  // scikit-learn default
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
  /// Keep `rows` as the packed store: label-0 rows first, each class in its
  /// original order, with train_y_ permuted to match.
  void store_packed(const hv::PackedHVs& rows, const Labels& y);
  /// Fraction of label-1 rows among the k nearest packed rows of each query.
  [[nodiscard]] std::vector<double> packed_votes(const hv::PackedHVs& queries) const;

  KnnConfig config_;
  Matrix train_X_;            // dense store (non-binary training data)
  hv::PackedHVs train_bits_;  // packed store (binary training data)
  Labels train_y_;
};

}  // namespace hdc::ml
