// Hamming-distance classification over patient hypervectors — the paper's
// pure HDC model (Section II-C): 1-nearest-neighbour by Hamming distance,
// validated with leave-one-out. A prototype (associative-memory) mode is
// also provided: each class is bundled into one prototype hypervector and
// queries snap to the nearer prototype.
#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "eval/metrics.hpp"
#include "hv/ann.hpp"
#include "hv/bitvector.hpp"
#include "hv/ops.hpp"
#include "hv/search.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::core {

enum class HammingMode {
  kNearestNeighbor,  // the paper's model
  kPrototype,        // classic HDC associative memory
};

class HammingClassifier {
 public:
  /// `k` = number of nearest neighbours voting in kNearestNeighbor mode
  /// (the paper uses 1); ignored in prototype mode.
  explicit HammingClassifier(HammingMode mode = HammingMode::kNearestNeighbor,
                             std::size_t k = 1)
      : mode_(mode), k_(k) {
    if (k_ == 0) throw std::invalid_argument("HammingClassifier: k must be >= 1");
  }

  [[nodiscard]] std::size_t k() const noexcept { return k_; }

  /// Pack and store (and, in prototype mode, bundle) the training
  /// hypervectors; the packed rows are the only copy kept.
  void fit(std::vector<hv::BitVector> vectors, std::vector<int> labels);

  [[nodiscard]] bool fitted() const noexcept { return !labels_.empty(); }
  [[nodiscard]] HammingMode mode() const noexcept { return mode_; }

  /// Predicted class of a query hypervector. The optional `stats` out-param
  /// receives the ANN work accounting when the index path answered the query
  /// (untouched on the exact path — callers can zero-init and inspect).
  [[nodiscard]] int predict(const hv::BitVector& query,
                            hv::ann::SearchStats* stats = nullptr) const;

  /// Distance-ratio score in [0,1]; > 0.5 favours the positive class. The
  /// one-row case of predict_scores().
  [[nodiscard]] double predict_score(const hv::BitVector& query,
                                     hv::ann::SearchStats* stats = nullptr) const;

  /// predict_score() of every row of `queries` through one search call, so
  /// the ANN path reranks them as query blocks. `pool` runs the search
  /// (nullptr = process-wide pool); results never depend on it. When the
  /// index path answered, a non-null `stats` receives one entry per query
  /// row (untouched on the exact and prototype paths).
  [[nodiscard]] std::vector<double> predict_scores(
      const hv::PackedHVs& queries, parallel::ThreadPool* pool = nullptr,
      std::vector<hv::ann::SearchStats>* stats = nullptr) const;

  /// Build (or rebuild) an approximate-NN index over the stored training
  /// vectors; k-NN queries then route through it. Prototype mode has no
  /// database to index, so enabling there throws.
  void enable_ann(const hv::ann::Config& config = {});

  /// Adopt a prebuilt index (bundle load path — avoids paying the build at
  /// serve start-up). The index fingerprint must match the stored training
  /// vectors; throws std::invalid_argument otherwise.
  void attach_ann(hv::ann::Index index);

  void disable_ann() noexcept { ann_.reset(); }
  [[nodiscard]] bool ann_enabled() const noexcept { return ann_.has_value(); }
  /// The attached index, or nullptr (for bundle save / introspection).
  [[nodiscard]] const hv::ann::Index* ann_index() const noexcept {
    return ann_ ? &*ann_ : nullptr;
  }
  /// Per-query probe-width override for the attached index (0 = the index
  /// default). Serve's --nprobe flag lands here.
  void set_ann_nprobe(std::size_t nprobe) noexcept { ann_nprobe_ = nprobe; }
  [[nodiscard]] std::size_t ann_nprobe() const noexcept { return ann_nprobe_; }

  /// Packed training vectors (the ANN index's database).
  [[nodiscard]] const hv::PackedHVs& packed_vectors() const noexcept {
    return packed_;
  }

  /// Class prototypes (prototype mode only).
  [[nodiscard]] const hv::BitVector& prototype(int label) const;

  [[nodiscard]] const std::vector<int>& training_labels() const noexcept {
    return labels_;
  }

  /// `hdc-hamming v4` token stream (util::serde): mode, k, labels and the
  /// packed training rows (hv::write_packed, one binary word block). The bundle's `hamming` section.
  /// save(load(save(x))) is byte-identical; load throws std::runtime_error
  /// on malformed input.
  void save(std::ostream& out) const;
  [[nodiscard]] static HammingClassifier load(std::istream& in);

 private:
  /// Adopt packed training rows (fit and load share it).
  void store(hv::PackedHVs rows, std::vector<int> labels);

  HammingMode mode_;
  std::size_t k_ = 1;
  hv::PackedHVs packed_;  // the training vectors, packed for the search kernel
  std::vector<int> labels_;
  hv::BitVector prototypes_[2];
  std::optional<hv::ann::Index> ann_;  // opt-in sub-linear k-NN path
  std::size_t ann_nprobe_ = 0;         // 0 = index default
};

/// Leave-one-out evaluation of the 1-NN Hamming model over a full dataset of
/// hypervectors (the paper's validation protocol): each vector is classified
/// by its nearest *other* vector, and the metrics are scored over all rows.
/// Runs eval::hamming_loocv; results are identical for any `pool`.
[[nodiscard]] eval::BinaryMetrics hamming_loo_metrics(
    const std::vector<hv::BitVector>& vectors, const std::vector<int>& labels,
    parallel::ThreadPool* pool = nullptr);

}  // namespace hdc::core
