// Concurrency and determinism tests for the serve path (ctest label:
// serve — run under TSan alongside the obs/grid suites). The contract under
// test: classify() and the coalescing submit() queue answer exactly the
// batch-path predictions for every predictor, regardless of client thread
// count, pool width, or how the drain task groups requests; the queue drains
// completely on shutdown; and a bad record fails only its own future.
#include <chrono>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "core/serve.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using hdc::core::ModelBundle;
using hdc::core::ServeConfig;
using hdc::core::ServeEngine;

struct ServeWorld {
  hdc::data::Dataset ds;
  std::string artifact;                      // saved bundle
  std::vector<int> hamming_reference;        // batch-path answers
  std::vector<int> logistic_reference;
  std::vector<int> forest_reference;
};

const ServeWorld& world() {
  static const ServeWorld w = [] {
    ServeWorld out;
    out.ds = hdc::data::make_sylhet({40, 50, 11});
    hdc::core::ExtractorConfig config;
    config.dimensions = 384;
    config.seed = 31;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(out.ds);
    const hdc::hv::BitMatrix bits = bundle.extractor->transform_bits(out.ds);
    const std::vector<hdc::hv::BitVector> vectors =
        bundle.extractor->transform(out.ds);
    {
      hdc::core::HammingClassifier hamming;
      hamming.fit(vectors, out.ds.labels());
      for (const hdc::hv::BitVector& v : vectors) {
        out.hamming_reference.push_back(hamming.predict(v));
      }
      bundle.hamming = std::move(hamming);
    }
    for (const char* name : {"Logistic Regression", "Random Forest"}) {
      auto model = hdc::ml::make_model(name, 0.2);
      model->fit_bits(bits, out.ds.labels());
      bundle.models.push_back(std::move(model));
    }
    out.logistic_reference =
        bundle.find_model("Logistic Regression")->predict_all_bits(bits);
    out.forest_reference =
        bundle.find_model("Random Forest")->predict_all_bits(bits);
    std::ostringstream saved;
    hdc::core::save_bundle(saved, bundle);
    out.artifact = saved.str();
    return out;
  }();
  return w;
}

ModelBundle load_world_bundle() {
  std::istringstream in(world().artifact);
  return hdc::core::load_bundle(in);
}

const std::vector<int>& reference_for(const std::string& predictor) {
  if (predictor == "hamming") return world().hamming_reference;
  if (predictor == "Random Forest") return world().forest_reference;
  return world().logistic_reference;
}

std::vector<double> row_copy(const hdc::data::Dataset& ds, std::size_t i) {
  const std::span<const double> row = ds.row(i);
  return {row.begin(), row.end()};
}

TEST(ServeEngineTest, SyncClassifyMatchesBatchPath) {
  for (const char* predictor :
       {"hamming", "Logistic Regression", "Random Forest"}) {
    SCOPED_TRACE(predictor);
    ServeConfig config;
    config.model = predictor;
    ServeEngine engine(load_world_bundle(), config);
    EXPECT_EQ(engine.model_name(), predictor);
    const std::vector<int>& reference = reference_for(predictor);
    for (std::size_t i = 0; i < world().ds.n_rows(); ++i) {
      EXPECT_EQ(engine.classify(world().ds.row(i)), reference[i]) << i;
    }
    EXPECT_EQ(engine.requests_served(), world().ds.n_rows());
  }
}

/// `clients` threads submit interleaved slices of the dataset through the
/// coalescing queue; every future must carry the batch-path answer.
void run_concurrent_clients(const std::string& predictor, std::size_t clients,
                            std::size_t pool_threads, std::size_t max_batch) {
  hdc::parallel::ThreadPool pool(pool_threads);
  ServeConfig config;
  config.model = predictor;
  config.max_batch = max_batch;
  config.pool = &pool;
  ServeEngine engine(load_world_bundle(), config);

  const std::size_t n = world().ds.n_rows();
  std::vector<std::future<int>> futures(n);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < n; i += clients) {
        futures[i] = engine.submit(row_copy(world().ds, i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<int>& reference = reference_for(predictor);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(futures[i].valid()) << i;
    EXPECT_EQ(futures[i].get(), reference[i]) << i;
  }
  engine.shutdown();
  EXPECT_EQ(engine.requests_served(), n);
}

TEST(ServeEngineTest, CoalescedMatchesSerialOneClient) {
  run_concurrent_clients("Logistic Regression", 1, 1, 16);
}

TEST(ServeEngineTest, CoalescedMatchesSerialTwoClients) {
  run_concurrent_clients("Logistic Regression", 2, 2, 8);
}

TEST(ServeEngineTest, CoalescedMatchesSerialHardwareClients) {
  const std::size_t hw = hdc::parallel::hardware_threads();
  run_concurrent_clients("Logistic Regression", hw, hw, 16);
}

TEST(ServeEngineTest, CoalescedHammingAndForestMatch) {
  run_concurrent_clients("hamming", 3, 2, 8);
  run_concurrent_clients("Random Forest", 3, 2, 8);
}

TEST(ServeEngineTest, MaxBatchOneStillMatches) {
  run_concurrent_clients("Logistic Regression", 2, 2, 1);
}

TEST(ServeEngineTest, QueueDrainsOnShutdown) {
  hdc::parallel::ThreadPool pool(2);
  ServeConfig config;
  config.pool = &pool;
  config.max_batch = 4;
  ServeEngine engine(load_world_bundle(), config);
  const std::size_t n = world().ds.n_rows();
  std::vector<std::future<int>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(engine.submit(row_copy(world().ds, i)));
  }
  engine.shutdown();
  // After shutdown every queued request has been answered — no get() blocks.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << i;
    EXPECT_EQ(futures[i].get(), world().hamming_reference[i]) << i;
  }
  EXPECT_EQ(engine.requests_served(), n);
}

TEST(ServeEngineTest, SubmitAfterShutdownThrows) {
  ServeEngine engine(load_world_bundle(), {});
  engine.shutdown();
  EXPECT_THROW((void)engine.submit(row_copy(world().ds, 0)), std::runtime_error);
  // shutdown() is idempotent.
  engine.shutdown();
}

TEST(ServeEngineTest, BadRecordFailsOnlyItsOwnFuture) {
  hdc::parallel::ThreadPool pool(1);
  ServeConfig config;
  config.pool = &pool;
  config.max_batch = 8;
  ServeEngine engine(load_world_bundle(), config);
  // Interleave good rows with wrong-arity rows in the same drain sweeps.
  std::vector<std::future<int>> good;
  std::vector<std::future<int>> bad;
  for (std::size_t i = 0; i < 12; ++i) {
    good.push_back(engine.submit(row_copy(world().ds, i)));
    bad.push_back(engine.submit({1.0, 2.0}));  // dataset arity is 16
  }
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(good[i].get(), world().hamming_reference[i]) << i;
    EXPECT_THROW((void)bad[i].get(), std::invalid_argument) << i;
  }
}

TEST(ServeEngineTest, ClassifyWrongArityThrows) {
  ServeEngine engine(load_world_bundle(), {});
  const std::vector<double> bad = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)engine.classify(bad), std::invalid_argument);
}

TEST(ServeEngineTest, ConstructorRejectsBadConfigs) {
  {
    ModelBundle no_extractor;
    EXPECT_THROW(ServeEngine(std::move(no_extractor), {}), std::invalid_argument);
  }
  {
    ServeConfig config;
    config.model = "No Such Model";
    EXPECT_THROW(ServeEngine(load_world_bundle(), config), std::invalid_argument);
  }
  {
    ServeConfig config;
    config.max_batch = 0;
    EXPECT_THROW(ServeEngine(load_world_bundle(), config), std::invalid_argument);
  }
  {
    // A bundle with an extractor but no predictor at all.
    std::istringstream in(world().artifact);
    ModelBundle bundle = hdc::core::load_bundle(in);
    bundle.hamming.reset();
    bundle.models.clear();
    EXPECT_THROW(ServeEngine(std::move(bundle), {}), std::invalid_argument);
  }
}

// serve.batch_size counts rows and serve.ann.rerank_fraction is a fraction;
// each must be registered with bounds that keep its values out of the
// overflow bucket (the default latency bounds end at ~8.4).
TEST(ServeEngineTest, BatchSizeAndRerankFractionLandInFiniteBuckets) {
  hdc::obs::set_enabled(true);
  {
    hdc::parallel::ThreadPool pool(1);
    ServeConfig config;
    config.model = "hamming";
    config.ann = true;
    config.pool = &pool;
    ServeEngine engine(load_world_bundle(), config);
    std::vector<std::future<int>> futures;
    for (std::size_t i = 0; i < 64; ++i) {
      futures.push_back(engine.submit(row_copy(world().ds, i)));
    }
    for (std::future<int>& f : futures) (void)f.get();
    (void)engine.classify(world().ds.row(0));
  }
  hdc::obs::set_enabled(false);

  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  const hdc::obs::HistogramSample* batch = snapshot.histogram("serve.batch_size");
  const hdc::obs::HistogramSample* fraction =
      snapshot.histogram("serve.ann.rerank_fraction");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(fraction, nullptr);
  for (const hdc::obs::HistogramSample* h : {batch, fraction}) {
    EXPECT_GT(h->count, 0u) << h->name;
    EXPECT_EQ(h->bucket_counts.back(), 0u) << h->name << ": sample in overflow";
  }
  // The extremes stay finite too: a full 64-row batch, and a fraction of 1
  // (on fraction bounds, not the seconds ladder).
  EXPECT_GE(batch->bounds.back(), 64.0);
  EXPECT_EQ(fraction->bounds.back(), 1.0);
}

/// A bundle whose Hamming predictor carries an ANN index that really
/// filters: 2,000 cohort rows and a rerank floor of 8, so each query reranks
/// a strict subset of its candidates.
const std::string& ann_artifact() {
  static const std::string artifact = [] {
    const hdc::data::Dataset train = hdc::data::make_synthetic_cohort(2000, 5);
    hdc::core::ExtractorConfig config;
    config.dimensions = 1024;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(train);
    hdc::core::HammingClassifier hamming;
    hamming.fit(bundle.extractor->transform(train), train.labels());
    hdc::hv::ann::Config ann_config;
    ann_config.min_rerank = 8;
    hamming.attach_ann(
        hdc::hv::ann::Index::build(hamming.packed_vectors(), ann_config));
    bundle.hamming = std::move(hamming);
    std::ostringstream saved;
    hdc::core::save_bundle(saved, bundle);
    return saved.str();
  }();
  return artifact;
}

struct AnnServeCounts {
  std::vector<int> answers;
  std::uint64_t candidates = 0;
  std::uint64_t probes = 0;
  std::uint64_t rerank_samples = 0;
};

AnnServeCounts ann_counts(std::vector<int> answers) {
  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  AnnServeCounts counts;
  counts.answers = std::move(answers);
  counts.candidates = snapshot.counter_value("serve.ann.candidates");
  counts.probes = snapshot.counter_value("serve.ann.probes");
  const hdc::obs::HistogramSample* fraction =
      snapshot.histogram("serve.ann.rerank_fraction");
  counts.rerank_samples = fraction != nullptr ? fraction->count : 0;
  return counts;
}

// The drain answers a sweep's Hamming rows with one blocked ANN search; the
// answers and the per-request ANN accounting must be exactly what per-row
// classify() produces for the same rows, with obs on and off.
TEST(ServeEngineTest, CoalescedAnnMatchesSync) {
  constexpr std::size_t kBurst = 64;
  const hdc::data::Dataset queries = hdc::data::make_synthetic_cohort(3 * kBurst, 6);
  for (const bool obs_on : {false, true}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    hdc::parallel::ThreadPool pool(1);
    ServeConfig config;
    config.model = "hamming";
    config.ann = true;
    config.pool = &pool;
    std::istringstream in(ann_artifact());
    ServeEngine engine(hdc::core::load_bundle(in), config);
    ASSERT_TRUE(engine.bundle().hamming->ann_enabled());

    hdc::obs::reset_metrics();
    hdc::obs::set_enabled(obs_on);
    std::vector<int> sync_answers;
    for (std::size_t i = 0; i < queries.n_rows(); ++i) {
      sync_answers.push_back(engine.classify(queries.row(i)));
    }
    const AnnServeCounts sync = ann_counts(std::move(sync_answers));

    hdc::obs::reset_metrics();
    std::vector<int> burst_answers;
    for (std::size_t first = 0; first < queries.n_rows(); first += kBurst) {
      std::vector<std::future<int>> futures;
      for (std::size_t i = first; i < first + kBurst; ++i) {
        futures.push_back(engine.submit(row_copy(queries, i)));
      }
      for (std::future<int>& f : futures) burst_answers.push_back(f.get());
    }
    const AnnServeCounts burst = ann_counts(std::move(burst_answers));
    hdc::obs::set_enabled(false);

    EXPECT_EQ(burst.answers, sync.answers);
    EXPECT_EQ(burst.candidates, sync.candidates);
    EXPECT_EQ(burst.probes, sync.probes);
    EXPECT_EQ(burst.rerank_samples, sync.rerank_samples);
    if (obs_on) {
      EXPECT_GT(sync.candidates, 0u);
      EXPECT_GT(sync.probes, 0u);
      EXPECT_EQ(sync.rerank_samples, queries.n_rows());  // one per request
    } else {
      EXPECT_EQ(sync.candidates, 0u);
      EXPECT_EQ(sync.rerank_samples, 0u);
    }
  }
}

TEST(ServeEngineTest, DefaultPredictorPrefersHamming) {
  ServeEngine engine(load_world_bundle(), {});
  EXPECT_EQ(engine.model_name(), "hamming");
  // Without a hamming section the first zoo model answers.
  std::istringstream in(world().artifact);
  ModelBundle bundle = hdc::core::load_bundle(in);
  bundle.hamming.reset();
  ServeEngine fallback(std::move(bundle), {});
  EXPECT_EQ(fallback.model_name(), "Logistic Regression");
}

}  // namespace
