// End-to-end determinism: identical seeds must give bit-identical results
// across independent runs, thread-pool sizes, and module boundaries — the
// repository-wide guarantee DESIGN.md §7 documents.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "core/grid.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"

namespace hdc::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.extractor.dimensions = 1000;
  config.model_budget = 0.2;
  return config;
}

TEST(Determinism, ExtractorIndependentOfThreadCount) {
  const data::Dataset ds = data::make_sylhet({30, 40, 1});
  HdcFeatureExtractor extractor(tiny_config().extractor);
  extractor.fit(ds);

  // transform() uses the global pool; encode_row is the serial reference.
  const auto parallel_vectors = extractor.transform(ds);
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    EXPECT_EQ(parallel_vectors[i], extractor.encode_row(ds.row(i))) << i;
  }
}

TEST(Determinism, ExplicitPoolsAgree) {
  const data::Dataset ds = data::make_sylhet({20, 30, 2});
  HdcFeatureExtractor extractor(tiny_config().extractor);
  extractor.fit(ds);
  // Single-threaded and four-thread pools through parallel_for must agree.
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  std::vector<hv::BitVector> via_one(ds.n_rows());
  std::vector<hv::BitVector> via_four(ds.n_rows());
  parallel::parallel_for(0, ds.n_rows(),
                         [&](std::size_t i) { via_one[i] = extractor.encode_row(ds.row(i)); },
                         &one);
  parallel::parallel_for(0, ds.n_rows(),
                         [&](std::size_t i) { via_four[i] = extractor.encode_row(ds.row(i)); },
                         &four);
  EXPECT_EQ(via_one, via_four);
}

TEST(Determinism, HammingLooStableAcrossRuns) {
  const data::Dataset ds = data::make_sylhet({40, 60, 3});
  const auto a = hamming_loo(ds, tiny_config());
  const auto b = hamming_loo(ds, tiny_config());
  EXPECT_EQ(a.confusion.tp, b.confusion.tp);
  EXPECT_EQ(a.confusion.fp, b.confusion.fp);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Determinism, FullKfoldPipelineStable) {
  const data::Dataset ds = data::make_sylhet({40, 60, 4});
  const std::vector<GridDatasetSpec> specs = {{"sylhet", &ds}};
  GridConfig config;
  config.models = {"Random Forest"};
  config.kfold = 4;
  config.experiment = tiny_config();
  const auto a = run_grid(specs, config).datasets.front().models.front().cv;
  const auto b = run_grid(specs, config).datasets.front().models.front().cv;
  EXPECT_EQ(a.fold_accuracy, b.fold_accuracy);
}

TEST(Determinism, DatasetGenerationSeedSeparation) {
  // Different seeds give different data; same seeds identical data.
  const data::Dataset a = data::make_sylhet({25, 25, 5});
  const data::Dataset b = data::make_sylhet({25, 25, 6});
  bool any_diff = false;
  for (std::size_t i = 0; i < a.n_rows() && !any_diff; ++i) {
    for (std::size_t j = 0; j < a.n_cols(); ++j) {
      if (a.value(i, j) != b.value(i, j)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Determinism, ExtractorSeedChangesVectorsNotGeometry) {
  // Different extractor seeds produce different hyperspaces whose *relative*
  // structure (which pair of rows is closer) is preserved in expectation.
  const data::Dataset ds = data::make_pima({20, 10, false, 0.0, 7});
  ExtractorConfig c1 = tiny_config().extractor;
  ExtractorConfig c2 = c1;
  c2.seed = c1.seed + 1;
  HdcFeatureExtractor e1(c1);
  HdcFeatureExtractor e2(c2);
  e1.fit(ds);
  e2.fit(ds);
  EXPECT_NE(e1.encode_row(ds.row(0)), e2.encode_row(ds.row(0)));
  // Same-row self distance is zero in both spaces.
  EXPECT_EQ(e1.encode_row(ds.row(0)).hamming(e1.encode_row(ds.row(0))), 0u);
  EXPECT_EQ(e2.encode_row(ds.row(0)).hamming(e2.encode_row(ds.row(0))), 0u);
}

}  // namespace
}  // namespace hdc::core
