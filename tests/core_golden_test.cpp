// Golden determinism snapshots: a fixed-seed end-to-end experiment on the
// synthetic Pima M and Sylhet datasets must reproduce these exact confusion
// counts, metrics, and encoded-vector hash on every platform and at every
// thread count. If a change moves these numbers it is either a behaviour
// change (update the snapshot deliberately, with the paper tables re-checked)
// or a lost determinism guarantee (fix the code).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace hdc::core {
namespace {

/// Fixed-seed config: extractor defaults (10,000 bits, seed 0xd1abe7e5),
/// dataset generators at their default seeds (Pima 2023, Sylhet 520).
ExperimentConfig golden_config() { return ExperimentConfig{}; }

data::Dataset golden_pima() {
  return data::impute_class_median(data::make_pima({}));
}

std::uint64_t fnv1a_words(const std::vector<hv::BitVector>& vectors) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const hv::BitVector& v : vectors) {
    for (const std::uint64_t w : v.words()) {
      h ^= w;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void expect_matches_confusion(const eval::BinaryMetrics& m, std::size_t tp,
                              std::size_t tn, std::size_t fp, std::size_t fn) {
  EXPECT_EQ(m.confusion.tp, tp);
  EXPECT_EQ(m.confusion.tn, tn);
  EXPECT_EQ(m.confusion.fp, fp);
  EXPECT_EQ(m.confusion.fn, fn);
  // The derived metrics must equal, bit-for-bit, what the metrics module
  // computes from label vectors holding the golden confusion counts.
  std::vector<int> y_true;
  std::vector<int> y_pred;
  for (const auto& [n, truth, prediction] :
       {std::tuple{tp, 1, 1}, std::tuple{tn, 0, 0}, std::tuple{fp, 0, 1},
        std::tuple{fn, 1, 0}}) {
    y_true.insert(y_true.end(), n, truth);
    y_pred.insert(y_pred.end(), n, prediction);
  }
  const eval::BinaryMetrics expected = eval::compute_metrics(y_true, y_pred);
  EXPECT_DOUBLE_EQ(m.accuracy, expected.accuracy);
  EXPECT_DOUBLE_EQ(m.precision, expected.precision);
  EXPECT_DOUBLE_EQ(m.recall, expected.recall);
  EXPECT_DOUBLE_EQ(m.specificity, expected.specificity);
  EXPECT_DOUBLE_EQ(m.f1, expected.f1);
}

TEST(GoldenSnapshot, PimaHammingLoo) {
  const eval::BinaryMetrics m = hamming_loo(golden_pima(), golden_config());
  expect_matches_confusion(m, 181, 434, 66, 87);
  EXPECT_NEAR(m.accuracy, 0.80078125, 1e-12);       // 615/768
  EXPECT_NEAR(m.f1, 0.70291262135922339, 1e-12);
}

TEST(GoldenSnapshot, SylhetHammingLoo) {
  const eval::BinaryMetrics m = hamming_loo(data::make_sylhet({}), golden_config());
  expect_matches_confusion(m, 303, 181, 19, 17);
  EXPECT_NEAR(m.accuracy, 0.93076923076923079, 1e-12);  // 484/520
  EXPECT_NEAR(m.f1, 0.94392523364485992, 1e-12);
}

TEST(GoldenSnapshot, EncodedVectorsHash) {
  const data::Dataset pima = golden_pima();
  HdcFeatureExtractor extractor(golden_config().extractor);
  extractor.fit(pima);
  EXPECT_EQ(fnv1a_words(extractor.transform(pima)), 7270215670140993532ULL);
}

/// The acceptance contract of the batch engine: re-running the identical
/// experiment with threads=1 and threads=hardware_threads() produces the
/// exact same confusion matrix and metrics.
TEST(GoldenSnapshot, MetricsThreadCountInvariant) {
  for (const bool use_sylhet : {false, true}) {
    const data::Dataset ds = use_sylhet ? data::make_sylhet({}) : golden_pima();
    ExperimentConfig serial = golden_config();
    serial.threads = 1;
    ExperimentConfig wide = golden_config();
    wide.threads = parallel::hardware_threads();
    const eval::BinaryMetrics a = hamming_loo(ds, serial);
    const eval::BinaryMetrics b = hamming_loo(ds, wide);
    EXPECT_EQ(a.confusion.tp, b.confusion.tp);
    EXPECT_EQ(a.confusion.tn, b.confusion.tn);
    EXPECT_EQ(a.confusion.fp, b.confusion.fp);
    EXPECT_EQ(a.confusion.fn, b.confusion.fn);
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_DOUBLE_EQ(a.f1, b.f1);
  }
}

/// Packed transform and vector transform describe the same hyperspace.
TEST(GoldenSnapshot, PackedTransformAgrees) {
  const data::Dataset sylhet = data::make_sylhet({});
  HdcFeatureExtractor extractor(golden_config().extractor);
  extractor.fit(sylhet);
  const std::vector<hv::BitVector> vectors = extractor.transform(sylhet);
  const hv::PackedHVs packed = extractor.transform_packed(sylhet);
  ASSERT_EQ(packed.rows(), vectors.size());
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(packed.unpack_row(i), vectors[i]) << i;
  }
}

}  // namespace
}  // namespace hdc::core
