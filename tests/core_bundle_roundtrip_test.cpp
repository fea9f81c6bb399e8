// Round-trip tests for the bundle format: every zoo model, the Sequential
// NN and full multi-section bundles are fitted on golden synthetic seeds,
// saved, loaded, and compared with EXPECT_EQ — on re-serialized state (the
// save/load/save string oracle: any lost or mutated field shows up as a byte
// diff) and on predict_all_bits outputs. Models fitted through dense fit()
// and packed fit_bits() both round-trip, and the suite runs under the
// mlkernel label configs (sanitizers + HDC_DISABLE_SIMD).
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "ml/zoo.hpp"
#include "nn/sequential.hpp"

namespace {

using hdc::core::HdcFeatureExtractor;
using hdc::core::load_bundle;
using hdc::core::ModelBundle;
using hdc::core::save_bundle;

/// All names ml::make_model accepts: the nine zoo models of Table III plus
/// the Naive Bayes baseline.
const std::vector<std::string> kModelNames = {
    "Random Forest", "KNN",  "Decision Tree",       "XGBoost", "CatBoost",
    "SGD",           "SVC",  "Logistic Regression", "LGBM",    "Naive Bayes"};

constexpr double kBudget = 0.15;  // shrink the boosted models' round counts

struct Golden {
  hdc::data::Dataset ds;
  HdcFeatureExtractor extractor;
  hdc::hv::BitMatrix bits;
  std::vector<hdc::hv::BitVector> vectors;
};

Golden make_golden(bool pima) {
  Golden g;
  g.ds = pima ? hdc::data::impute_class_median(
                    hdc::data::make_pima({60, 40, true, 0.05, 4}))
              : hdc::data::make_sylhet({30, 40, 3});
  hdc::core::ExtractorConfig config;
  config.dimensions = 512;
  config.seed = 99;
  g.extractor = HdcFeatureExtractor(config);
  g.extractor.fit(g.ds);
  g.bits = g.extractor.transform_bits(g.ds);
  g.vectors = g.extractor.transform(g.ds);
  return g;
}

/// Copyable stand-in for the golden extractor (the extractor itself owns a
/// unique_ptr encoder): rebuild from the learned column encodings.
HdcFeatureExtractor clone_extractor(const HdcFeatureExtractor& source) {
  HdcFeatureExtractor extractor(source.config());
  extractor.fit_from_columns(source.column_encodings());
  return extractor;
}

const Golden& golden_pima() {
  static const Golden g = make_golden(true);
  return g;
}

const Golden& golden_sylhet() {
  static const Golden g = make_golden(false);
  return g;
}

std::string save_to_string(const hdc::ml::Classifier& model) {
  std::ostringstream out;
  model.save_state(out);
  return out.str();
}

/// Fit `name` on the golden seed (packed fit_bits, or dense fit on the same
/// 0/1 values), round-trip it, and require (1) identical re-serialized state
/// and (2) identical hard predictions on the training bits — the strongest
/// equality the public interface can express.
void expect_model_round_trips(const std::string& name, const Golden& g,
                              bool dense = false) {
  auto original = hdc::ml::make_model(name, kBudget);
  if (dense) {
    original->fit(g.extractor.transform_to_matrix(g.ds), g.ds.labels());
  } else {
    original->fit_bits(g.bits, g.ds.labels());
  }
  const std::string saved = save_to_string(*original);

  auto loaded = hdc::ml::make_model(name, kBudget);
  std::istringstream in(saved);
  loaded->load_state(in);

  EXPECT_EQ(save_to_string(*loaded), saved) << name << ": state drifted";
  EXPECT_EQ(loaded->predict_all_bits(g.bits), original->predict_all_bits(g.bits))
      << name << ": predictions drifted";
}

TEST(BundleZooRoundTrip, EveryModelOnPima) {
  for (const std::string& name : kModelNames) {
    SCOPED_TRACE(name);
    expect_model_round_trips(name, golden_pima());
  }
}

TEST(BundleZooRoundTrip, EveryModelOnSylhet) {
  for (const std::string& name : kModelNames) {
    SCOPED_TRACE(name);
    expect_model_round_trips(name, golden_sylhet());
  }
}

TEST(BundleZooRoundTrip, PackedAndDenseConfigsBothRoundTrip) {
  // KNN persists its training store in whichever representation it was
  // fitted with (fit_bits -> "packed", fit -> "dense"); both must survive
  // the trip, and the other models' state must be representation-independent.
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense" : "packed");
    for (const std::string& name : {std::string("KNN"),
                                    std::string("Logistic Regression"),
                                    std::string("Random Forest")}) {
      SCOPED_TRACE(name);
      expect_model_round_trips(name, golden_pima(), dense);
    }
  }
}

TEST(BundleZooRoundTrip, UnfittedSaveThrows) {
  for (const std::string& name : kModelNames) {
    SCOPED_TRACE(name);
    const auto model = hdc::ml::make_model(name, kBudget);
    std::ostringstream out;
    EXPECT_THROW(model->save_state(out), std::logic_error);
  }
}

TEST(BundleNnRoundTrip, SequentialWeightsAndPredictions) {
  const Golden& g = golden_pima();
  hdc::nn::SequentialConfig config;
  config.hidden = {16, 8};
  config.max_epochs = 30;
  config.seed = 11;
  hdc::nn::Sequential original(config);
  const hdc::ml::Matrix X = g.extractor.transform_to_matrix(g.ds);
  original.fit(X, g.ds.labels());

  const std::string saved = save_to_string(original);
  hdc::nn::Sequential loaded;
  std::istringstream in(saved);
  loaded.load_state(in);

  EXPECT_EQ(save_to_string(loaded), saved);
  for (std::size_t i = 0; i < X.size(); ++i) {
    // Bit-identical doubles: same weights, same deterministic forward pass.
    EXPECT_EQ(loaded.predict_proba(X[i]), original.predict_proba(X[i])) << i;
  }
}

/// Full bundle: extractor, hamming, nn and two zoo models at once, through
/// save/load/save.
TEST(BundleFullRoundTrip, AllSectionsSurvive) {
  const Golden& g = golden_pima();

  ModelBundle bundle;
  bundle.extractor = clone_extractor(g.extractor);
  {
    hdc::core::HammingClassifier hamming;
    hamming.fit(g.vectors, g.ds.labels());
    bundle.hamming = std::move(hamming);
  }
  {
    hdc::nn::SequentialConfig config;
    config.hidden = {8};
    config.max_epochs = 10;
    bundle.nn = std::make_unique<hdc::nn::Sequential>(config);
    bundle.nn->fit(g.extractor.transform_to_matrix(g.ds), g.ds.labels());
  }
  for (const char* name : {"Logistic Regression", "Decision Tree"}) {
    auto model = hdc::ml::make_model(name, kBudget);
    model->fit_bits(g.bits, g.ds.labels());
    bundle.models.push_back(std::move(model));
  }

  std::ostringstream first;
  save_bundle(first, bundle);
  std::istringstream stored(first.str());
  const ModelBundle loaded = load_bundle(stored);

  // The string oracle: a second save of the loaded bundle must reproduce
  // the first byte for byte.
  std::ostringstream second;
  save_bundle(second, loaded);
  EXPECT_EQ(second.str(), first.str());

  ASSERT_TRUE(loaded.extractor.has_value());
  ASSERT_TRUE(loaded.hamming.has_value());
  ASSERT_NE(loaded.nn, nullptr);
  ASSERT_EQ(loaded.model_names(),
            (std::vector<std::string>{"Logistic Regression", "Decision Tree"}));

  // Loaded pipeline behaves identically end to end.
  for (std::size_t i = 0; i < g.ds.n_rows(); ++i) {
    EXPECT_EQ(loaded.extractor->encode_row(g.ds.row(i)), g.vectors[i]) << i;
    EXPECT_EQ(loaded.hamming->predict(g.vectors[i]),
              bundle.hamming->predict(g.vectors[i]))
        << i;
  }
  for (const std::string& name : loaded.model_names()) {
    EXPECT_EQ(loaded.find_model(name)->predict_all_bits(g.bits),
              bundle.find_model(name)->predict_all_bits(g.bits))
        << name;
  }
}

TEST(BundleFullRoundTrip, WordBlockSectionsResaveByteIdentical) {
  // Every section that stores packed words as binary blocks — hamming rows,
  // ann centroids and sketches, KNN's packed training bits — next to the
  // extractor: save -> load -> save gives the same bytes, through a stream
  // and through a file.
  const Golden& g = golden_pima();
  ModelBundle bundle;
  bundle.extractor = clone_extractor(g.extractor);
  bundle.hamming.emplace().fit(g.vectors, g.ds.labels());
  bundle.hamming->enable_ann();
  auto knn = hdc::ml::make_model("KNN", kBudget);
  knn->fit_bits(g.bits, g.ds.labels());
  bundle.models.push_back(std::move(knn));

  std::ostringstream first;
  save_bundle(first, bundle);
  for (const char* section : {"section ~extractor ", "section ~hamming ", "section ~ann ",
                              "section ~model:KNN "}) {
    EXPECT_NE(first.str().find(section), std::string::npos) << section;
  }
  std::istringstream stored(first.str());
  const ModelBundle loaded = load_bundle(stored);
  ASSERT_TRUE(loaded.hamming.has_value());
  EXPECT_TRUE(loaded.hamming->ann_enabled());
  std::ostringstream second;
  save_bundle(second, loaded);
  EXPECT_EQ(second.str(), first.str());

  const std::string path = ::testing::TempDir() + "/word_blocks.bundle";
  hdc::core::save_bundle_file(path, loaded);
  std::ostringstream third;
  save_bundle(third, hdc::core::load_bundle_file(path));
  EXPECT_EQ(third.str(), first.str());
  EXPECT_EQ(loaded.find_model("KNN")->predict_all_bits(g.bits),
            bundle.find_model("KNN")->predict_all_bits(g.bits));
}

TEST(BundleFullRoundTrip, EmptyBundleSaveThrows) {
  const ModelBundle empty;
  std::ostringstream out;
  EXPECT_THROW(save_bundle(out, empty), std::logic_error);
}

TEST(BundleFullRoundTrip, FileRoundTrip) {
  const Golden& g = golden_sylhet();
  ModelBundle bundle;
  bundle.extractor = clone_extractor(g.extractor);
  const std::string path = ::testing::TempDir() + "/roundtrip.bundle";
  hdc::core::save_bundle_file(path, bundle);
  const ModelBundle loaded = hdc::core::load_bundle_file(path);
  ASSERT_TRUE(loaded.extractor.has_value());
  EXPECT_EQ(loaded.extractor->encode_row(g.ds.row(0)), g.vectors[0]);
  // No manifest section was written, and none is invented on load.
  EXPECT_FALSE(loaded.manifest.has_value());
}

TEST(BundleManifestRoundTrip, EveryFieldSurvives) {
  const Golden& g = golden_pima();
  ModelBundle bundle;
  bundle.extractor = clone_extractor(g.extractor);

  hdc::core::RunManifest manifest;
  manifest.dataset = "pima_m,sylhet";  // grid-style joined names
  manifest.dataset_hash = 0xdeadbeefcafef00dULL;
  manifest.rows = 90;
  manifest.cols = 9;
  manifest.dimensions = 512;
  manifest.extractor_seed = 99;
  manifest.split_seed = 7;
  manifest.simd_tier = "avx2";
  manifest.threads = 4;
  manifest.hardware_threads = 8;
  manifest.obs_enabled = true;
  manifest.trace_enabled = false;
  manifest.shard_rows = 65536;
  manifest.num_shards = 16;
  manifest.obs_json = "{\"counters\":{\"experiment.folds\":10}}";
  bundle.manifest = manifest;

  std::ostringstream first;
  save_bundle(first, bundle);
  std::istringstream stored(first.str());
  const ModelBundle loaded = load_bundle(stored);

  // String oracle: re-saving reproduces the bytes, manifest section included.
  std::ostringstream second;
  save_bundle(second, loaded);
  EXPECT_EQ(second.str(), first.str());

  ASSERT_TRUE(loaded.manifest.has_value());
  const hdc::core::RunManifest& m = *loaded.manifest;
  EXPECT_EQ(m.dataset, manifest.dataset);
  EXPECT_EQ(m.dataset_hash, manifest.dataset_hash);
  EXPECT_EQ(m.rows, manifest.rows);
  EXPECT_EQ(m.cols, manifest.cols);
  EXPECT_EQ(m.dimensions, manifest.dimensions);
  EXPECT_EQ(m.extractor_seed, manifest.extractor_seed);
  EXPECT_EQ(m.split_seed, manifest.split_seed);
  EXPECT_EQ(m.simd_tier, manifest.simd_tier);
  EXPECT_EQ(m.threads, manifest.threads);
  EXPECT_EQ(m.hardware_threads, manifest.hardware_threads);
  EXPECT_EQ(m.obs_enabled, manifest.obs_enabled);
  EXPECT_EQ(m.trace_enabled, manifest.trace_enabled);
  EXPECT_EQ(m.shard_rows, manifest.shard_rows);
  EXPECT_EQ(m.num_shards, manifest.num_shards);
  EXPECT_EQ(m.obs_json, manifest.obs_json);
}

TEST(BundleManifestRoundTrip, PreShardManifestsStillLoad) {
  // Manifests written before the shard-geometry line end right after the
  // obs line; loading one must succeed with zeroed shard fields, not throw.
  hdc::core::RunManifest manifest;
  manifest.dataset = "pima_m";
  manifest.simd_tier = "scalar";
  manifest.shard_rows = 4096;
  manifest.num_shards = 3;
  std::ostringstream out;
  hdc::core::save_manifest(out, manifest);
  std::string bytes = out.str();
  const std::size_t shards_at = bytes.find("shards");
  ASSERT_NE(shards_at, std::string::npos);
  const std::size_t line_end = bytes.find('\n', shards_at);
  ASSERT_NE(line_end, std::string::npos);
  bytes.erase(shards_at, line_end - shards_at + 1);

  std::istringstream in(bytes);
  const hdc::core::RunManifest loaded = hdc::core::load_manifest(in);
  EXPECT_EQ(loaded.dataset, "pima_m");
  EXPECT_EQ(loaded.shard_rows, 0u);
  EXPECT_EQ(loaded.num_shards, 0u);
}

TEST(BundleManifestRoundTrip, RetiredFlagSlotsAreIgnoredOnLoad) {
  // The flags row keeps four slots; the first two are retired, written as 1
  // and ignored on load, so manifests that stored 0 there still load.
  hdc::core::RunManifest manifest;
  manifest.dataset = "pima_m";
  manifest.simd_tier = "scalar";
  manifest.obs_enabled = true;
  std::ostringstream out;
  hdc::core::save_manifest(out, manifest);
  const std::string bytes = out.str();
  const std::size_t flags_at = bytes.find("flags 1 1 1 0");
  ASSERT_NE(flags_at, std::string::npos) << bytes;

  std::string old_bytes = bytes;
  old_bytes.replace(flags_at, 13, "flags 0 0 1 0");
  std::istringstream in(old_bytes);
  const hdc::core::RunManifest loaded = hdc::core::load_manifest(in);
  EXPECT_TRUE(loaded.obs_enabled);
  EXPECT_FALSE(loaded.trace_enabled);
  std::ostringstream resaved;
  hdc::core::save_manifest(resaved, loaded);
  EXPECT_EQ(resaved.str(), bytes);
}

TEST(BundleManifestRoundTrip, CapturedManifestFingerprintsTheDataset) {
  const Golden& g = golden_pima();
  hdc::core::ExperimentConfig config;
  config.extractor = g.extractor.config();
  config.seed = 5;

  ModelBundle bundle;
  bundle.extractor = clone_extractor(g.extractor);
  bundle.manifest = hdc::core::make_run_manifest(g.ds, "golden_pima", config);

  std::ostringstream out;
  save_bundle(out, bundle);
  std::istringstream in(out.str());
  const ModelBundle loaded = load_bundle(in);

  ASSERT_TRUE(loaded.manifest.has_value());
  EXPECT_EQ(loaded.manifest->dataset, "golden_pima");
  EXPECT_EQ(loaded.manifest->dataset_hash,
            hdc::core::dataset_fingerprint(g.ds));
  EXPECT_EQ(loaded.manifest->rows, g.ds.n_rows());
  EXPECT_EQ(loaded.manifest->cols, g.ds.n_cols());
  EXPECT_EQ(loaded.manifest->dimensions, g.extractor.config().dimensions);
  EXPECT_EQ(loaded.manifest->split_seed, 5u);
  EXPECT_FALSE(loaded.manifest->simd_tier.empty());

  // The fingerprint is sensitive to the data bytes: any value edit moves it.
  hdc::data::Dataset edited = g.ds;
  edited.set_value(0, 0, edited.value(0, 0) + 1.0);
  EXPECT_NE(hdc::core::dataset_fingerprint(edited),
            hdc::core::dataset_fingerprint(g.ds));
}

}  // namespace
