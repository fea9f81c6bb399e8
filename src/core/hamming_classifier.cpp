#include "core/hamming_classifier.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "eval/cross_validation.hpp"
#include "parallel/thread_pool.hpp"
#include "util/serde.hpp"

namespace hdc::core {

namespace {
constexpr const char* kHammingMagic = "hdc-hamming";
constexpr const char* kHammingVersion = "v4";
}  // namespace

void HammingClassifier::fit(std::vector<hv::BitVector> vectors,
                            std::vector<int> labels) {
  if (vectors.size() != labels.size()) {
    throw std::invalid_argument("HammingClassifier: bad training data");
  }
  store(hv::PackedHVs::pack(vectors), std::move(labels));
}

void HammingClassifier::store(hv::PackedHVs rows, std::vector<int> labels) {
  if (rows.empty() || rows.rows() != labels.size()) {
    throw std::invalid_argument("HammingClassifier: bad training data");
  }
  for (const int y : labels) {
    if (y != 0 && y != 1) {
      throw std::invalid_argument("HammingClassifier: labels must be 0/1");
    }
  }
  packed_ = std::move(rows);
  labels_ = std::move(labels);
  ann_.reset();  // any attached index was built over the previous database

  if (mode_ == HammingMode::kPrototype) {
    hv::BitAccumulator acc[2] = {hv::BitAccumulator(packed_.bits()),
                                 hv::BitAccumulator(packed_.bits())};
    for (std::size_t i = 0; i < packed_.rows(); ++i) {
      acc[static_cast<std::size_t>(labels_[i])].add(packed_.unpack_row(i));
    }
    for (int c : {0, 1}) {
      if (acc[c].total() == 0) {
        throw std::invalid_argument("HammingClassifier: prototype mode needs both classes");
      }
      prototypes_[c] = acc[c].to_majority();
    }
  }
}

void HammingClassifier::save(std::ostream& out) const {
  if (!fitted()) {
    throw std::invalid_argument("HammingClassifier::save: model is not fitted");
  }
  util::serde::Writer w(out);
  w.tag(kHammingMagic).tag(kHammingVersion).nl();
  w.tag(mode_ == HammingMode::kPrototype ? "prototype" : "nearest").u64(k_).nl();
  w.vec_int(labels_).nl();
  hv::write_packed(w, packed_);
}

HammingClassifier HammingClassifier::load(std::istream& in) {
  util::serde::Reader r(in, "load hdc-hamming");
  r.expect(kHammingMagic, "magic");
  r.expect_version(kHammingVersion);
  const std::string mode_name = r.token("mode");
  HammingMode mode = HammingMode::kNearestNeighbor;
  if (mode_name == "prototype") {
    mode = HammingMode::kPrototype;
  } else if (mode_name != "nearest") {
    throw r.error("unknown mode '" + mode_name + "'");
  }
  const std::uint64_t k = r.count("k", hv::kMaxPackedRows);
  if (k == 0) throw r.error("k must be >= 1");
  std::vector<int> labels = r.vec_int("labels", hv::kMaxPackedRows);
  // Capped at the label count, so a corrupted row count cannot allocate
  // more rows than the body has labels for.
  hv::PackedHVs rows = hv::read_packed(r, "rows", labels.size());
  if (rows.rows() != labels.size()) {
    throw r.error("row count " + std::to_string(rows.rows()) +
                  " does not match label count " + std::to_string(labels.size()));
  }
  if (rows.bits() == 0) throw r.error("zero-width rows");
  HammingClassifier model(mode, k);
  try {
    model.store(std::move(rows), std::move(labels));
  } catch (const std::invalid_argument& e) {
    // No rows, a label outside {0, 1}, or a prototype-mode class missing.
    throw r.error(e.what());
  }
  return model;
}

int HammingClassifier::predict(const hv::BitVector& query,
                               hv::ann::SearchStats* stats) const {
  return predict_score(query, stats) >= 0.5 ? 1 : 0;
}

double HammingClassifier::predict_score(const hv::BitVector& query,
                                        hv::ann::SearchStats* stats) const {
  std::vector<hv::ann::SearchStats> per_query;
  const double score = predict_scores(hv::PackedHVs::pack({&query, 1}), nullptr,
                                      stats != nullptr ? &per_query : nullptr)
                           .front();
  if (stats != nullptr && !per_query.empty()) *stats = per_query.front();
  return score;
}

std::vector<double> HammingClassifier::predict_scores(
    const hv::PackedHVs& queries, parallel::ThreadPool* pool,
    std::vector<hv::ann::SearchStats>* stats) const {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  std::vector<double> scores;
  scores.reserve(queries.rows());
  if (mode_ == HammingMode::kPrototype) {
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      const hv::BitVector query = queries.unpack_row(i);
      const double d0 = query.hamming_fraction(prototypes_[0]);
      const double d1 = query.hamming_fraction(prototypes_[1]);
      const double total = d0 + d1;
      // Closer to prototype 1 -> > 0.5.
      scores.push_back(total > 0.0 ? d0 / total : 0.5);
    }
    return scores;
  }
  // k-NN vote (k = 1 gives the paper's model: score 1 iff the nearest
  // neighbour is positive). Distance ties resolve toward the earliest
  // training row; both kernels guarantee (distance, index) ordering, and
  // the ANN path preserves it over its reranked candidate set.
  const std::size_t k = std::min(k_, labels_.size());
  std::vector<std::vector<hv::Neighbor>> nearest;
  if (ann_) {
    hv::ann::SearchOptions options;
    options.nprobe = ann_nprobe_;
    options.pool = pool;
    nearest = ann_->top_k(queries, packed_, k, options, nullptr, stats);
  } else {
    hv::SearchOptions options;
    options.pool = pool;
    if (k == 1) {
      for (const hv::Neighbor& n : hv::nearest_neighbors(queries, packed_, options)) {
        nearest.push_back({n});
      }
    } else {
      nearest = hv::top_k_neighbors(queries, packed_, k, options);
    }
  }
  for (const std::vector<hv::Neighbor>& list : nearest) {
    std::size_t positive_votes = 0;
    for (const hv::Neighbor& n : list) {
      positive_votes += labels_[n.index] == 1 ? 1 : 0;
    }
    scores.push_back(static_cast<double>(positive_votes) / static_cast<double>(k));
  }
  return scores;
}

void HammingClassifier::enable_ann(const hv::ann::Config& config) {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  if (mode_ == HammingMode::kPrototype) {
    throw std::logic_error(
        "HammingClassifier: ANN needs kNearestNeighbor mode (prototype mode "
        "has no training database to index)");
  }
  ann_ = hv::ann::Index::build(packed_, config);
}

void HammingClassifier::attach_ann(hv::ann::Index index) {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  if (mode_ == HammingMode::kPrototype) {
    throw std::logic_error(
        "HammingClassifier: ANN needs kNearestNeighbor mode");
  }
  index.check_database(packed_);  // throws on fingerprint/shape mismatch
  ann_ = std::move(index);
}

const hv::BitVector& HammingClassifier::prototype(int label) const {
  if (mode_ != HammingMode::kPrototype) {
    throw std::logic_error("HammingClassifier: prototypes need kPrototype mode");
  }
  if (label != 0 && label != 1) {
    throw std::invalid_argument("HammingClassifier: label must be 0/1");
  }
  return prototypes_[static_cast<std::size_t>(label)];
}

eval::BinaryMetrics hamming_loo_metrics(const std::vector<hv::BitVector>& vectors,
                                        const std::vector<int>& labels,
                                        parallel::ThreadPool* pool) {
  return eval::hamming_loocv(vectors, labels, pool).metrics;
}

}  // namespace hdc::core
