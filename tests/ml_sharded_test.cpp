// fit_shards contracts: every zoo model (plus Naive Bayes) must fit to
// byte-identical state and predictions at any shard count, and — with the
// cohort under kShardSubsampleRows — to the same state and predictions as
// its resident fit_bits; LR, NB, SVC and KNN are also checked one by one,
// and DT, RF and LGBM at their own configs; the streamed-build manifest
// records its shard geometry; the ml.hist_merge_ops counter must account
// for the merges; and DT and RF load each shard once per tree level.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "core/manifest.hpp"
#include "data/chunked.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/sharded_bits.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/hist_gbdt.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/ordered_gbdt.hpp"
#include "ml/sgd.hpp"
#include "ml/sharded.hpp"
#include "ml/svm.hpp"
#include "ml/tree.hpp"
#include "obs/metrics.hpp"

namespace {

using hdc::ml::Classifier;
using hdc::ml::MaterializedShardSource;

constexpr std::size_t kRows = 300;
constexpr std::size_t kDim = 96;

std::string state_of(const Classifier& model) {
  std::ostringstream out;
  model.save_state(out);
  return out.str();
}

struct Fixture {
  hdc::data::Dataset ds;
  hdc::hv::BitMatrix whole;
  std::vector<hdc::hv::ShardedBitMatrix> sharded;  // 1, 4, 8 shards
  hdc::hv::BitMatrix test_bits;
};

const Fixture& fixture() {
  static const Fixture* cached = [] {
    auto* f = new Fixture;
    f->ds = hdc::data::make_synthetic_cohort(kRows + 60, 21);
    std::vector<std::size_t> train_idx(kRows);
    std::vector<std::size_t> test_idx(60);
    for (std::size_t i = 0; i < kRows; ++i) train_idx[i] = i;
    for (std::size_t i = 0; i < 60; ++i) test_idx[i] = kRows + i;
    const hdc::data::Dataset test_ds = f->ds.subset(test_idx);
    f->ds = f->ds.subset(train_idx);

    hdc::core::ExtractorConfig config;
    config.dimensions = kDim;
    config.seed = 19;
    hdc::core::HdcFeatureExtractor extractor(config);
    extractor.fit(f->ds);
    f->whole = extractor.transform_bits(f->ds);
    f->test_bits = extractor.transform_bits(test_ds);
    for (const std::size_t count : {1u, 4u, 8u}) {
      f->sharded.push_back(extractor.transform_bits_chunked(
          f->ds, (kRows + count - 1) / count));
    }
    return f;
  }();
  return *cached;
}

struct ModelSpec {
  std::string name;
  std::function<std::unique_ptr<Classifier>()> make;
};

std::vector<ModelSpec> zoo() {
  using namespace hdc::ml;
  std::vector<ModelSpec> models;
  models.push_back({"Random Forest", [] {
    ForestConfig config;
    config.n_trees = 5;
    config.tree.max_depth = 5;
    return std::make_unique<RandomForest>(config);
  }});
  models.push_back({"KNN", [] { return std::make_unique<KnnClassifier>(); }});
  models.push_back({"Decision Tree", [] {
    TreeConfig config;
    config.max_depth = 4;
    return std::make_unique<DecisionTree>(config);
  }});
  models.push_back({"XGBoost", [] {
    GbdtConfig config;
    config.n_rounds = 5;
    config.max_depth = 3;
    return std::make_unique<GbdtClassifier>(config);
  }});
  models.push_back({"CatBoost", [] {
    OrderedGbdtConfig config;
    config.n_rounds = 5;
    config.depth = 3;
    return std::make_unique<OrderedGbdtClassifier>(config);
  }});
  models.push_back({"SGD", [] {
    SgdConfig config;
    config.epochs = 2;
    return std::make_unique<SgdClassifier>(config);
  }});
  models.push_back({"Logistic Regression", [] {
    LogisticConfig config;
    config.max_iter = 20;
    return std::make_unique<LogisticRegression>(config);
  }});
  models.push_back({"SVC", [] { return std::make_unique<SvcClassifier>(); }});
  models.push_back({"LGBM", [] {
    HistGbdtConfig config;
    config.n_rounds = 5;
    config.num_leaves = 6;
    return std::make_unique<HistGbdtClassifier>(config);
  }});
  models.push_back({"Naive Bayes",
                    [] { return std::make_unique<NaiveBayesClassifier>(); }});
  return models;
}

// The central contract: 1-shard, 4-shard and 8-shard fits are
// byte-identical in state and prediction for every model, and equal the
// resident fit_bits on the whole matrix (kRows is under the subsample cap,
// so even the subsampling fallback keeps every row).
TEST(ShardedFit, EveryModelIsShardCountInvariant) {
  const Fixture& f = fixture();
  ASSERT_LE(kRows, hdc::ml::kShardSubsampleRows);
  for (const ModelSpec& spec : zoo()) {
    const std::unique_ptr<Classifier> resident = spec.make();
    resident->fit_bits(f.whole, f.ds.labels());
    const std::string base_state = state_of(*resident);
    const std::vector<int> base_pred = resident->predict_all_bits(f.test_bits);
    for (const hdc::hv::ShardedBitMatrix& sharded : f.sharded) {
      const std::unique_ptr<Classifier> model = spec.make();
      const MaterializedShardSource src(sharded, f.ds.labels());
      model->fit_shards(src);
      EXPECT_EQ(state_of(*model), base_state)
          << spec.name << " state at " << sharded.num_shards() << " shards";
      EXPECT_EQ(model->predict_all_bits(f.test_bits), base_pred)
          << spec.name << " predictions at " << sharded.num_shards()
          << " shards";
    }
  }
}

// Logistic's fit_bits is a one-shard fit_shards, and its row blocks never
// span a shard while every float accumulator is carried across shards in
// global row order, so the 8-shard fit must equal fit_bits bit for bit
// (ragged blocks and tiers: PackedParity.LogisticRaggedBlocksEveryTier).
TEST(ShardedFit, LogisticMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::LogisticConfig config;
  config.max_iter = 20;
  hdc::ml::LogisticRegression reference(config);
  reference.fit_bits(f.whole, f.ds.labels());
  hdc::ml::LogisticRegression sharded(config);
  const MaterializedShardSource src(f.sharded[2], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// NB's fit_bits is a one-shard fit_shards: the 4-shard fit must land on the
// same state as the public resident entry point (dense-vs-fit_bits parity
// is PackedParity.NaiveBayes in ml_packed_parity_test).
TEST(ShardedFit, NaiveBayesMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::NaiveBayesClassifier reference;
  reference.fit_bits(f.whole, f.ds.labels());
  hdc::ml::NaiveBayesClassifier sharded;
  const MaterializedShardSource src(f.sharded[1], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// SVC gathers a strided subsample capped at kShardSubsampleRows; fit_bits
// keeps every row, so when the cohort fits under the cap the 8-shard fit
// equals fit_bits exactly.
TEST(ShardedFit, SvcMatchesFitBitsWhenUnderTheCap) {
  const Fixture& f = fixture();
  ASSERT_LE(kRows, hdc::ml::kShardSubsampleRows);
  hdc::ml::SvcClassifier reference;
  reference.fit_bits(f.whole, f.ds.labels());
  hdc::ml::SvcClassifier sharded;
  const MaterializedShardSource src(f.sharded[2], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// KNN is its training set: the sharded gather must reproduce fit_bits.
TEST(ShardedFit, KnnMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::KnnClassifier reference;
  reference.fit_bits(f.whole, f.ds.labels());
  hdc::ml::KnnClassifier sharded;
  const MaterializedShardSource src(f.sharded[1], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// DT's fit_bits is a one-shard fit_shards: level-wise growth with integer
// popcount node statistics, so 4 shards land on the same tree.
TEST(ShardedFit, DecisionTreeMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::DecisionTree reference;
  reference.fit_bits(f.whole, f.ds.labels());
  ASSERT_GT(reference.node_count(), 1u);
  hdc::ml::DecisionTree sharded;
  const MaterializedShardSource src(f.sharded[1], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// RF: bootstrap multiplicities and path-keyed candidate draws feed the same
// level-wise tree builder at any shard count.
TEST(ShardedFit, RandomForestMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::ForestConfig config;
  config.n_trees = 7;
  hdc::ml::RandomForest reference(config);
  reference.fit_bits(f.whole, f.ds.labels());
  hdc::ml::RandomForest sharded(config);
  const MaterializedShardSource src(f.sharded[2], f.ds.labels());
  static_cast<Classifier&>(sharded).fit_shards(src);
  EXPECT_EQ(state_of(sharded), state_of(reference));
}

// The level-wise packed builder renumbers its nodes in depth-first preorder
// and keys candidates on the node's path, so a sharded DT or RF writes the
// same bytes as the depth-first dense fit on the expanded 0/1 matrix.
TEST(ShardedFit, TreeAndForestMatchDenseFitBytes) {
  const Fixture& f = fixture();
  hdc::ml::Matrix dense;
  for (std::size_t i = 0; i < f.whole.rows(); ++i) {
    dense.push_back(f.whole.row_doubles(i));
  }
  const MaterializedShardSource src(f.sharded[1], f.ds.labels());
  hdc::ml::DecisionTree tree_dense;
  tree_dense.fit(dense, f.ds.labels());
  hdc::ml::DecisionTree tree_sharded;
  static_cast<Classifier&>(tree_sharded).fit_shards(src);
  EXPECT_EQ(state_of(tree_sharded), state_of(tree_dense));

  hdc::ml::ForestConfig config;
  config.n_trees = 7;
  hdc::ml::RandomForest forest_dense(config);
  forest_dense.fit(dense, f.ds.labels());
  hdc::ml::RandomForest forest_sharded(config);
  static_cast<Classifier&>(forest_sharded).fit_shards(src);
  EXPECT_EQ(state_of(forest_sharded), state_of(forest_dense));
}

/// Forwards to another source and counts its shard() loads per shard.
class CountingShardSource final : public hdc::ml::ShardSource {
 public:
  explicit CountingShardSource(const hdc::ml::ShardSource& inner)
      : inner_(&inner), loads_(inner.num_shards(), 0) {}

  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  [[nodiscard]] std::size_t num_shards() const override {
    return inner_->num_shards();
  }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return inner_->shard_begin(s);
  }
  [[nodiscard]] const hdc::hv::BitMatrix& shard(std::size_t s) const override {
    ++loads_[s];
    return inner_->shard(s);
  }
  [[nodiscard]] std::span<const int> labels() const override {
    return inner_->labels();
  }

  [[nodiscard]] const std::vector<std::size_t>& loads() const { return loads_; }
  void reset() { std::fill(loads_.begin(), loads_.end(), 0); }

 private:
  const hdc::ml::ShardSource* inner_;
  mutable std::vector<std::size_t> loads_;
};

// The level-wise tree builder routes a shard's rows to their children at
// the start of the next level's histogram pass over that shard, so a level
// with a split candidate loads each shard once, and the level below the
// deepest split (which has no candidate at max_depth) loads nothing. Both
// trees here reach their max_depth, so every level above it has a split.
TEST(ShardedFit, TreeLevelsLoadEachShardOnce) {
  const Fixture& f = fixture();
  hdc::hv::ShardedBitMatrix thirds;
  for (std::size_t begin = 0; begin < kRows; begin += kRows / 3) {
    std::vector<std::size_t> rows(kRows / 3);
    std::iota(rows.begin(), rows.end(), begin);
    thirds.append_shard(f.whole.subset(rows));
  }
  const MaterializedShardSource inner(thirds, f.ds.labels());
  CountingShardSource src(inner);
  ASSERT_EQ(src.num_shards(), 3u);

  hdc::ml::TreeConfig tree_config;
  tree_config.max_depth = 6;
  hdc::ml::DecisionTree tree(tree_config);
  static_cast<Classifier&>(tree).fit_shards(src);
  ASSERT_EQ(tree.depth(), 6u);
  EXPECT_EQ(src.loads(), std::vector<std::size_t>(3, 6));

  src.reset();
  hdc::ml::ForestConfig forest_config;
  forest_config.n_trees = 3;
  forest_config.tree.max_depth = 4;
  hdc::ml::RandomForest forest(forest_config);
  static_cast<Classifier&>(forest).fit_shards(src);
  EXPECT_EQ(src.loads(), std::vector<std::size_t>(3, 3 * 4));
}

// LGBM carries its per-column (g, h) sums across shards in ascending row
// order and gates them on the counts still reachable, so the 4- and 8-shard
// fits equal the one-shard fit_bits in every float bit.
TEST(ShardedFit, HistGbdtMatchesFitBitsExactly) {
  const Fixture& f = fixture();
  hdc::ml::HistGbdtConfig config;
  config.n_rounds = 10;
  config.num_leaves = 8;
  hdc::ml::HistGbdtClassifier reference(config);
  reference.fit_bits(f.whole, f.ds.labels());
  for (const std::size_t v : {1u, 2u}) {
    hdc::ml::HistGbdtClassifier sharded(config);
    const MaterializedShardSource src(f.sharded[v], f.ds.labels());
    static_cast<Classifier&>(sharded).fit_shards(src);
    EXPECT_EQ(state_of(sharded), state_of(reference))
        << f.sharded[v].num_shards() << " shards";
  }
}

// The base-class fallback (XGBoost has no packed fast path) must still be
// shard-count invariant: the strided subsample is a pure function of
// (rows, cap).
TEST(ShardedFit, StridedSubsampleIsDeterministic) {
  const std::vector<std::size_t> a = hdc::ml::strided_subsample(1000, 64);
  const std::vector<std::size_t> b = hdc::ml::strided_subsample(1000, 64);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  // Under the cap: identity selection.
  const std::vector<std::size_t> all = hdc::ml::strided_subsample(50, 64);
  ASSERT_EQ(all.size(), 50u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(ShardedFit, HistMergeOpsCounterAccountsForMerges) {
  const Fixture& f = fixture();
  hdc::obs::set_enabled(true);
  const std::uint64_t before =
      hdc::obs::snapshot().counter_value("ml.hist_merge_ops");
  hdc::ml::HistGbdtConfig config;
  config.n_rounds = 2;
  config.num_leaves = 4;
  hdc::ml::HistGbdtClassifier model(config);
  const MaterializedShardSource src(f.sharded[1], f.ds.labels());
  static_cast<Classifier&>(model).fit_shards(src);
  const std::uint64_t after =
      hdc::obs::snapshot().counter_value("ml.hist_merge_ops");
  hdc::obs::set_enabled(false);
  EXPECT_GT(after, before);
}

// Streamed builds (hdc_cli bundle --stream, bench_shard) set the shard
// geometry on the manifest themselves; a resident run records one block.
TEST(ShardedFit, ManifestRecordsShardGeometry) {
  const hdc::data::Dataset ds = hdc::data::make_synthetic_cohort(100, 1);
  const hdc::core::ExperimentConfig config;
  hdc::core::RunManifest m = hdc::core::make_run_manifest(ds, "cohort", config);
  EXPECT_EQ(m.shard_rows, 0u);
  EXPECT_EQ(m.num_shards, 1u);
  m.shard_rows = 30;
  m.num_shards = hdc::data::make_shard_plan(ds.n_rows(), 30).size();
  EXPECT_EQ(m.num_shards, 4u);  // 30 + 30 + 30 + 10
  const std::string json = hdc::core::to_json(m);
  EXPECT_NE(json.find("\"shard_rows\":30"), std::string::npos);
  EXPECT_NE(json.find("\"num_shards\":4"), std::string::npos);
  std::stringstream stream;
  hdc::core::save_manifest(stream, m);
  const hdc::core::RunManifest loaded = hdc::core::load_manifest(stream);
  EXPECT_EQ(loaded.shard_rows, 30u);
  EXPECT_EQ(loaded.num_shards, 4u);
}

}  // namespace
