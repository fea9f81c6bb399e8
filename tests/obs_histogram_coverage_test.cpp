// Histogram bounds cover their values: with obs on, drive the instrumented
// paths a deployment runs — sync and coalesced serving on the exact and the
// ANN Hamming predictor, one grid fold, and one streamed bundle build — and
// then no registered fixed-bucket histogram may hold a sample in its
// overflow bucket. A sample there means the histogram's bounds stop short of
// the values it records, so its quantiles are clamped.
#include <gtest/gtest.h>

#include <future>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/grid.hpp"
#include "core/hamming_classifier.hpp"
#include "core/serve.hpp"
#include "core/shard_source.hpp"
#include "data/chunked.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using hdc::core::ServeConfig;
using hdc::core::ServeEngine;

/// A saved bundle: the extractor and a Hamming predictor with an attached
/// ANN index.
std::string serve_artifact(const hdc::data::Dataset& train) {
  hdc::core::ExtractorConfig config;
  config.dimensions = 1024;
  hdc::core::ModelBundle bundle;
  bundle.extractor.emplace(config);
  bundle.extractor->fit(train);
  hdc::core::HammingClassifier hamming;
  hamming.fit(bundle.extractor->transform(train), train.labels());
  hdc::hv::ann::Config ann_config;
  ann_config.min_rerank = 8;  // a real sketch selection at this size
  hamming.attach_ann(
      hdc::hv::ann::Index::build(hamming.packed_vectors(), ann_config));
  bundle.hamming = std::move(hamming);
  std::ostringstream saved;
  hdc::core::save_bundle(saved, bundle);
  return saved.str();
}

/// Classify every query row, then submit them all as one burst.
void serve_sync_and_burst(const std::string& artifact, bool ann,
                          const hdc::data::Dataset& queries) {
  hdc::parallel::ThreadPool pool(1);
  ServeConfig config;
  config.model = "hamming";
  config.ann = ann;
  config.pool = &pool;
  std::istringstream in(artifact);
  ServeEngine engine(hdc::core::load_bundle(in), config);
  for (std::size_t i = 0; i < queries.n_rows(); ++i) {
    (void)engine.classify(queries.row(i));
  }
  std::vector<std::future<int>> futures;
  for (std::size_t i = 0; i < queries.n_rows(); ++i) {
    const std::span<const double> row = queries.row(i);
    futures.push_back(engine.submit({row.begin(), row.end()}));
  }
  for (std::future<int>& f : futures) (void)f.get();
}

void one_grid_fold() {
  hdc::data::PimaConfig pima_config;
  pima_config.n_negative = 60;
  pima_config.n_positive = 30;
  pima_config.seed = 7;
  const hdc::data::Dataset pima = hdc::data::make_pima(pima_config);
  const std::vector<hdc::core::GridDatasetSpec> specs = {{"pima", &pima}};
  hdc::core::GridConfig config;
  config.models = {"Logistic Regression", "Decision Tree"};
  config.kfold = 2;
  config.threads = 2;
  config.experiment.extractor.dimensions = 512;
  config.experiment.model_budget = 0.2;
  (void)hdc::core::run_grid(specs, config);
}

void one_streamed_build() {
  constexpr std::size_t kRows = 600;
  const hdc::data::SyntheticCohortChunks chunks(kRows, 9);
  hdc::core::ExtractorConfig config;
  config.dimensions = 512;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(chunks.chunk(0, kRows));
  const hdc::core::EncodingShardSource source(chunks, extractor, 256);
  (void)hdc::hv::ann::Index::build_sharded(source);
  for (const char* name : {"Logistic Regression", "Decision Tree"}) {
    hdc::ml::make_model(name, 0.2)->fit_shards(source);
  }
}

TEST(HistogramCoverage, NoRegisteredHistogramOverflows) {
  const hdc::data::Dataset train = hdc::data::make_synthetic_cohort(1500, 21);
  const hdc::data::Dataset queries = hdc::data::make_synthetic_cohort(64, 22);
  const std::string artifact = serve_artifact(train);

  hdc::obs::reset_metrics();
  hdc::obs::set_enabled(true);
  serve_sync_and_burst(artifact, /*ann=*/false, queries);
  serve_sync_and_burst(artifact, /*ann=*/true, queries);
  one_grid_fold();
  one_streamed_build();
  hdc::obs::set_enabled(false);

  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  std::size_t recorded = 0;
  for (const hdc::obs::HistogramSample& h : snapshot.histograms) {
    ASSERT_FALSE(h.bucket_counts.empty()) << h.name;
    recorded += h.count > 0 ? 1 : 0;
    EXPECT_EQ(h.bucket_counts.back(), 0u)
        << h.name << ": " << h.bucket_counts.back() << " of " << h.count
        << " samples above the last bound " << h.bounds.back();
  }
  // The run recorded into the serve histograms, among others.
  for (const char* name : {"serve.batch_size", "serve.ann.rerank_fraction"}) {
    const hdc::obs::HistogramSample* h = snapshot.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
  EXPECT_GE(recorded, 4u);
}

}  // namespace
