// Bit-exactness tests for the packed (bitplane + popcount) ML path.
//
// The input type picks the algorithm: fit() on dense doubles runs the dense
// code, fit_bits() on a BitMatrix runs the packed one. The packed paths
// promise bit-identical models to the dense code on any all-0/1 design
// matrix: same splits, same weights, same predictions, same RNG draw
// sequences. The dense fit() is the oracle here: these tests fit every model
// both ways on golden hypervector encodings of the Pima and Sylhet
// substitutes — including ragged row counts that exercise partial trailing
// mask words — and compare model internals with EXPECT_EQ, not tolerances.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "core/hybrid.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "hv/sharded_bits.hpp"
#include "ml/forest.hpp"
#include "ml/hist_gbdt.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/sgd.hpp"
#include "ml/sharded.hpp"
#include "ml/svm.hpp"
#include "ml/tree.hpp"
#include "ml/zoo.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace {

using hdc::hv::BitMatrix;
using hdc::ml::Labels;
using hdc::ml::Matrix;

struct Encoded {
  Matrix X;       // dense 0/1 doubles
  BitMatrix bits; // the same values, packed
  Labels y;
};

/// Encode a dataset into hypervectors and expand the dense mirror from the
/// same bits, so both fit paths consume the exact same design matrix.
Encoded encode(const hdc::data::Dataset& ds, std::size_t dim,
               std::uint64_t seed = 42) {
  hdc::core::ExtractorConfig config;
  config.dimensions = dim;
  config.seed = seed;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  Encoded out;
  out.bits = extractor.transform_bits(ds);
  out.X.reserve(out.bits.rows());
  for (std::size_t i = 0; i < out.bits.rows(); ++i) {
    out.X.push_back(out.bits.row_doubles(i));
  }
  out.y = ds.labels();
  return out;
}

Encoded encode_pima(std::size_t dim = 1000) {
  hdc::data::PimaConfig config;
  config.seed = 2023;
  return encode(hdc::data::impute_class_median(hdc::data::make_pima(config)), dim);
}

Encoded encode_sylhet(std::size_t dim = 1000) {
  return encode(hdc::data::make_sylhet(hdc::data::SylhetConfig{}), dim);
}

/// Row subset of an Encoded (first `n` rows), for ragged-row-count sweeps.
Encoded head(const Encoded& full, std::size_t n) {
  Encoded out;
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  out.bits = full.bits.subset(idx);
  out.X.assign(full.X.begin(), full.X.begin() + static_cast<std::ptrdiff_t>(n));
  out.y.assign(full.y.begin(), full.y.begin() + static_cast<std::ptrdiff_t>(n));
  return out;
}

/// Fit `make()` dense (fit on doubles) and packed (fit_bits), and require
/// identical predictions over the training rows from both routes.
template <typename MakeFn, typename CheckFn>
void expect_parity(const Encoded& data, const MakeFn& make, const CheckFn& check) {
  auto dense = make();
  dense->fit(data.X, data.y);
  const std::vector<int> dense_pred = dense->predict_all(data.X);

  auto packed = make();
  packed->fit_bits(data.bits, data.y);
  const std::vector<int> packed_pred = packed->predict_all_bits(data.bits);
  EXPECT_EQ(packed_pred, dense_pred);

  check(*dense, *packed);
}

std::string state_of(const hdc::ml::Classifier& model) {
  std::ostringstream out;
  model.save_state(out);
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// BitMatrix plumbing
// ---------------------------------------------------------------------------

// Row counts that land on and straddle 64-bit mask-word boundaries: the
// trailing partial word is where a padding-bit bug would show up.
TEST(PackedPlumbing, RaggedRowCountsRoundTrip) {
  const Encoded full = encode_pima(256);
  for (const std::size_t n : {64u, 65u, 127u, 191u}) {
    const Encoded sub = head(full, n);
    ASSERT_EQ(sub.bits.rows(), n);
    EXPECT_EQ(sub.bits.valid().count(), n);
    for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
      EXPECT_EQ(sub.bits.row_doubles(i), sub.X[i]) << "n=" << n << " row=" << i;
    }
    // Column popcounts against a dense count over the same subset.
    for (const std::size_t j : {std::size_t{0}, sub.bits.cols() - 1}) {
      std::size_t expected = 0;
      for (std::size_t i = 0; i < n; ++i) expected += sub.X[i][j] == 1.0 ? 1 : 0;
      EXPECT_EQ(sub.bits.column_popcount(j), expected) << "n=" << n << " col=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-model golden parity (Pima M encoding)
// ---------------------------------------------------------------------------

TEST(PackedParity, HistGbdtPima) {
  const Encoded data = encode_pima();
  expect_parity(
      data, [] { return std::make_unique<hdc::ml::HistGbdtClassifier>(); },
      [&](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        const auto& d = dynamic_cast<const hdc::ml::HistGbdtClassifier&>(dense);
        const auto& p = dynamic_cast<const hdc::ml::HistGbdtClassifier&>(packed);
        EXPECT_EQ(d.round_count(), p.round_count());
        for (std::size_t i = 0; i < data.X.size(); i += 37) {
          EXPECT_EQ(d.predict_proba(data.X[i]), p.predict_proba(data.X[i]));
        }
      });
}

TEST(PackedParity, DecisionTreePima) {
  const Encoded data = encode_pima();
  expect_parity(
      data, [] { return std::make_unique<hdc::ml::DecisionTree>(); },
      [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        const auto& d = dynamic_cast<const hdc::ml::DecisionTree&>(dense);
        const auto& p = dynamic_cast<const hdc::ml::DecisionTree&>(packed);
        EXPECT_EQ(d.node_count(), p.node_count());
        EXPECT_EQ(d.depth(), p.depth());
        EXPECT_EQ(d.feature_importances(), p.feature_importances());
      });
}

TEST(PackedParity, RandomForestPima) {
  const Encoded data = encode_pima();
  hdc::ml::ForestConfig config;
  config.n_trees = 25;
  expect_parity(
      data, [&] { return std::make_unique<hdc::ml::RandomForest>(config); },
      [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        const auto& d = dynamic_cast<const hdc::ml::RandomForest&>(dense);
        const auto& p = dynamic_cast<const hdc::ml::RandomForest&>(packed);
        EXPECT_EQ(d.feature_importances(), p.feature_importances());
      });
}

TEST(PackedParity, LogisticPima) {
  const Encoded data = encode_pima();
  hdc::ml::LogisticConfig config;
  config.max_iter = 80;  // parity is per-iteration exact; keep the test quick
  expect_parity(
      data, [&] { return std::make_unique<hdc::ml::LogisticRegression>(config); },
      [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        const auto& d = dynamic_cast<const hdc::ml::LogisticRegression&>(dense);
        const auto& p = dynamic_cast<const hdc::ml::LogisticRegression&>(packed);
        EXPECT_EQ(d.weights(), p.weights());
        EXPECT_EQ(d.bias(), p.bias());
      });
}

TEST(PackedParity, SgdPima) {
  const Encoded data = encode_pima();
  for (const hdc::ml::SgdLoss loss : {hdc::ml::SgdLoss::kHinge, hdc::ml::SgdLoss::kLog}) {
    hdc::ml::SgdConfig config;
    config.loss = loss;
    expect_parity(
        data, [&] { return std::make_unique<hdc::ml::SgdClassifier>(config); },
        [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
          const auto& d = dynamic_cast<const hdc::ml::SgdClassifier&>(dense);
          const auto& p = dynamic_cast<const hdc::ml::SgdClassifier&>(packed);
          EXPECT_EQ(d.weights(), p.weights());
          EXPECT_EQ(d.bias(), p.bias());
        });
  }
}

TEST(PackedParity, SvcPima) {
  const Encoded data = encode_pima(500);
  for (const hdc::ml::SvmKernel kernel :
       {hdc::ml::SvmKernel::kRbf, hdc::ml::SvmKernel::kLinear}) {
    hdc::ml::SvcConfig config;
    config.kernel = kernel;
    expect_parity(
        data, [&] { return std::make_unique<hdc::ml::SvcClassifier>(config); },
        [&](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
          const auto& d = dynamic_cast<const hdc::ml::SvcClassifier&>(dense);
          const auto& p = dynamic_cast<const hdc::ml::SvcClassifier&>(packed);
          EXPECT_EQ(d.support_vector_count(), p.support_vector_count());
          for (std::size_t i = 0; i < data.X.size(); i += 53) {
            EXPECT_EQ(d.decision(data.X[i]), p.decision(data.X[i]));
          }
          EXPECT_EQ(state_of(p), state_of(d));
        });
  }
}

// Naive Bayes: fit_bits runs the one-shard popcount fit, which must land on
// the dense Bernoulli fit's exact state (on 0/1 data the dense sum and
// sum-of-squares accumulators are the same integer ones-counts).
TEST(PackedParity, NaiveBayes) {
  for (const Encoded& data : {encode_pima(), encode_sylhet()}) {
    expect_parity(
        data, [] { return std::make_unique<hdc::ml::NaiveBayesClassifier>(); },
        [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
          EXPECT_EQ(state_of(packed), state_of(dense));
        });
  }
}

TEST(PackedParity, KnnPima) {
  const Encoded data = encode_pima();
  for (const bool weighted : {false, true}) {
    hdc::ml::KnnConfig config;
    config.distance_weighted = weighted;
    expect_parity(
        data, [&] { return std::make_unique<hdc::ml::KnnClassifier>(config); },
        [](const hdc::ml::Classifier&, const hdc::ml::Classifier&) {});
  }
}

// ---------------------------------------------------------------------------
// Sylhet encoding + ragged row counts
// ---------------------------------------------------------------------------

TEST(PackedParity, HistGbdtSylhet) {
  const Encoded data = encode_sylhet();
  expect_parity(
      data, [] { return std::make_unique<hdc::ml::HistGbdtClassifier>(); },
      [](const hdc::ml::Classifier&, const hdc::ml::Classifier&) {});
}

TEST(PackedParity, ForestAndLogisticSylhet) {
  const Encoded data = encode_sylhet();
  hdc::ml::ForestConfig forest_config;
  forest_config.n_trees = 15;
  expect_parity(
      data, [&] { return std::make_unique<hdc::ml::RandomForest>(forest_config); },
      [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        EXPECT_EQ(dynamic_cast<const hdc::ml::RandomForest&>(dense).feature_importances(),
                  dynamic_cast<const hdc::ml::RandomForest&>(packed).feature_importances());
      });
  hdc::ml::LogisticConfig logistic_config;
  logistic_config.max_iter = 60;
  expect_parity(
      data, [&] { return std::make_unique<hdc::ml::LogisticRegression>(logistic_config); },
      [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
        EXPECT_EQ(dynamic_cast<const hdc::ml::LogisticRegression&>(dense).weights(),
                  dynamic_cast<const hdc::ml::LogisticRegression&>(packed).weights());
      });
}

/// Random n x width 0/1 design (padding bits zero) with random labels.
Encoded random_bits(std::size_t n, std::size_t width, hdc::util::Rng& rng) {
  hdc::hv::PackedHVs rows(width, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* words = rows.row(i);
    for (std::size_t w = 0; w < rows.words_per_row(); ++w) words[w] = rng();
    if (width % 64 != 0) words[rows.words_per_row() - 1] &= (1ULL << (width % 64)) - 1;
  }
  Encoded out;
  out.bits = BitMatrix::from_rows(std::move(rows));
  for (std::size_t i = 0; i < n; ++i) {
    out.X.push_back(out.bits.row_doubles(i));
    out.y.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  return out;
}

/// `bits` cut into consecutive shards of `shard_rows` rows (the last one
/// ragged).
hdc::hv::ShardedBitMatrix shard_by(const BitMatrix& bits, std::size_t shard_rows) {
  hdc::hv::ShardedBitMatrix sharded;
  for (std::size_t begin = 0; begin < bits.rows(); begin += shard_rows) {
    std::vector<std::size_t> idx;
    for (std::size_t i = begin; i < std::min(bits.rows(), begin + shard_rows); ++i) {
      idx.push_back(i);
    }
    sharded.append_shard(bits.subset(idx));
  }
  return sharded;
}

// The packed logistic fit runs the select kernels over blocks of up to 16
// rows that never span a shard: row counts around the block size, shard
// sizes that cut blocks short, and widths around the 64-bit word and the
// vector widths must all land on the dense fit()'s exact state, on every
// SIMD tier.
TEST(PackedParity, LogisticRaggedBlocksEveryTier) {
  hdc::util::Rng rng(1515);
  hdc::ml::LogisticConfig config;
  config.max_iter = 25;
  const hdc::simd::Tier initial = hdc::simd::active_tier();
  for (const std::size_t n : {1u, 15u, 16u, 17u, 33u, 100u}) {
    for (const std::size_t width : {1u, 63u, 64u, 65u, 130u, 1000u}) {
      const Encoded data = random_bits(n, width, rng);
      hdc::ml::LogisticRegression dense(config);
      dense.fit(data.X, data.y);
      const std::string expected = state_of(dense);
      for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
        hdc::simd::set_tier(tier);
        const std::string where = std::string("tier=") + hdc::simd::tier_name(tier) +
                                  " n=" + std::to_string(n) +
                                  " width=" + std::to_string(width);
        hdc::ml::LogisticRegression packed(config);
        packed.fit_bits(data.bits, data.y);
        EXPECT_EQ(state_of(packed), expected) << where;
        for (const std::size_t shard_rows : {1u, 5u, 16u, 17u}) {
          const hdc::hv::ShardedBitMatrix sharded = shard_by(data.bits, shard_rows);
          hdc::ml::LogisticRegression model(config);
          model.fit_shards(hdc::ml::MaterializedShardSource(sharded, data.y));
          EXPECT_EQ(state_of(model), expected) << where << " shard_rows=" << shard_rows;
        }
      }
    }
  }
  hdc::simd::set_tier(initial);
}

// The packed LGBM split search sums each leaf's gradients with the
// zero_bit_sums kernel, continued across shards, and skips leaves with
// fewer than 2 * min_data_in_leaf rows. With the default min_data_in_leaf
// of 20, root sizes 39/40/41 sit on both sides of that rule; widths hit
// the ragged last row word on every tier. fit_bits and fit_shards must
// land on the dense fit()'s exact state.
TEST(PackedParity, HistGbdtRaggedEveryTier) {
  hdc::util::Rng rng(1616);
  hdc::ml::HistGbdtConfig config;
  config.n_rounds = 25;
  const hdc::simd::Tier initial = hdc::simd::active_tier();
  for (const std::size_t n : {39u, 40u, 41u, 100u, 300u}) {
    for (const std::size_t width : {1u, 63u, 64u, 65u, 130u}) {
      const Encoded data = random_bits(n, width, rng);
      hdc::ml::HistGbdtClassifier dense(config);
      dense.fit(data.X, data.y);
      const std::string expected = state_of(dense);
      for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
        hdc::simd::set_tier(tier);
        const std::string where = std::string("tier=") + hdc::simd::tier_name(tier) +
                                  " n=" + std::to_string(n) +
                                  " width=" + std::to_string(width);
        hdc::ml::HistGbdtClassifier packed(config);
        packed.fit_bits(data.bits, data.y);
        EXPECT_EQ(state_of(packed), expected) << where;
        for (const std::size_t shard_rows : {1u, 5u, 17u, 64u}) {
          const hdc::hv::ShardedBitMatrix sharded = shard_by(data.bits, shard_rows);
          hdc::ml::HistGbdtClassifier model(config);
          model.fit_shards(hdc::ml::MaterializedShardSource(sharded, data.y));
          EXPECT_EQ(state_of(model), expected) << where << " shard_rows=" << shard_rows;
        }
      }
    }
  }
  hdc::simd::set_tier(initial);
}

// Non-multiple-of-64 row counts drive partial trailing words through every
// mask/plane reduction in the tree and boosting split searches.
TEST(PackedParity, RaggedRowCounts) {
  const Encoded full = encode_pima(500);
  for (const std::size_t n : {64u, 65u, 127u, 191u}) {
    const Encoded sub = head(full, n);
    hdc::ml::HistGbdtConfig boost_config;
    boost_config.n_rounds = 20;
    expect_parity(
        sub, [&] { return std::make_unique<hdc::ml::HistGbdtClassifier>(boost_config); },
        [](const hdc::ml::Classifier&, const hdc::ml::Classifier&) {});
    expect_parity(
        sub, [] { return std::make_unique<hdc::ml::DecisionTree>(); },
        [](const hdc::ml::Classifier& dense, const hdc::ml::Classifier& packed) {
          EXPECT_EQ(dynamic_cast<const hdc::ml::DecisionTree&>(dense).node_count(),
                    dynamic_cast<const hdc::ml::DecisionTree&>(packed).node_count());
        });
  }
}

// ---------------------------------------------------------------------------
// KNN vs hv/search regression (the satellite: one Hamming implementation)
// ---------------------------------------------------------------------------

TEST(PackedKnn, MatchesSearchEngineNeighbors) {
  const Encoded data = encode_pima(1000);
  const std::size_t n_db = 500;
  const std::size_t n_q = data.bits.rows() - n_db;

  std::vector<std::size_t> db_idx(n_db);
  for (std::size_t i = 0; i < n_db; ++i) db_idx[i] = i;
  std::vector<std::size_t> q_idx(n_q);
  for (std::size_t i = 0; i < n_q; ++i) q_idx[i] = n_db + i;
  const BitMatrix db = data.bits.subset(db_idx);
  const BitMatrix queries = data.bits.subset(q_idx);
  const Labels db_y(data.y.begin(), data.y.begin() + static_cast<std::ptrdiff_t>(n_db));

  hdc::ml::KnnConfig config;
  config.k = 1;
  hdc::ml::KnnClassifier knn(config);
  knn.fit_bits(db, db_y);
  const std::vector<int> pred = knn.predict_all_bits(queries);

  const std::vector<hdc::hv::Neighbor> nearest =
      hdc::hv::nearest_neighbors(queries.row_major(), db.row_major());
  const std::vector<std::size_t> dmat =
      hdc::hv::distance_matrix(queries.row_major(), db.row_major());

  std::size_t compared = 0;
  for (std::size_t q = 0; q < n_q; ++q) {
    // k=1 KNN picks *a* minimum-distance row; the search engine picks the
    // lowest-index one. Compare labels only where the minimum is unique.
    const std::size_t best = nearest[q].distance;
    std::size_t min_count = 0;
    for (std::size_t j = 0; j < n_db; ++j) {
      if (dmat[q * n_db + j] == best) ++min_count;
    }
    if (min_count != 1) continue;
    ++compared;
    EXPECT_EQ(pred[q], db_y[nearest[q].index]) << "query " << q;
  }
  EXPECT_GT(compared, n_q / 2) << "tie-skip removed too many queries";
}

// ---------------------------------------------------------------------------
// Pipeline-level parity: experiment driver + hybrid model
// ---------------------------------------------------------------------------

TEST(PackedPipeline, KfoldAccuracyIdenticalPackedVsDense) {
  hdc::data::PimaConfig pima_config;
  pima_config.n_negative = 120;
  pima_config.n_positive = 60;
  pima_config.seed = 7;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(pima_config));

  hdc::core::ExperimentConfig config;
  config.extractor.dimensions = 600;
  const hdc::core::InputMode mode = hdc::core::InputMode::kHypervectors;

  // The driver hands every fold to fit_bits; the oracle re-runs the same
  // folds on dense doubles (allow_packed=false) through fit().
  const hdc::eval::CvResult packed =
      hdc::core::kfold_cv_accuracy(ds, "Decision Tree", mode, 5, config);
  const hdc::eval::CvResult dense = hdc::eval::kfold_run(
      ds.labels(), 5, config.seed,
      [&](std::span<const std::size_t> train, std::span<const std::size_t> test) {
        const hdc::core::FoldData fold = hdc::core::materialize_fold(
            ds, train, test, mode, config, /*allow_packed=*/false);
        EXPECT_FALSE(fold.train_bits.has_value());
        const auto model = hdc::ml::make_model("Decision Tree", config.model_budget);
        hdc::core::fit_fold_model(*model, fold);
        return hdc::core::fold_accuracy(*model, fold);
      });

  EXPECT_EQ(packed.fold_accuracy, dense.fold_accuracy);
  EXPECT_EQ(packed.mean_accuracy, dense.mean_accuracy);
}

TEST(PackedPipeline, HybridModelIdenticalPackedVsDense) {
  hdc::data::PimaConfig pima_config;
  pima_config.n_negative = 100;
  pima_config.n_positive = 50;
  pima_config.seed = 13;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(pima_config));
  hdc::core::ExtractorConfig extractor_config;
  extractor_config.dimensions = 600;

  // Oracle: the same extractor and model, fitted by hand on dense doubles.
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(ds);
  const Matrix X = extractor.transform_to_matrix(ds);
  hdc::ml::HistGbdtClassifier dense;
  dense.fit(X, ds.labels());
  const std::vector<int> dense_pred = dense.predict_all(X);

  hdc::core::HybridModel packed(extractor_config,
                                std::make_unique<hdc::ml::HistGbdtClassifier>());
  packed.fit(ds);
  EXPECT_EQ(packed.predict_all(ds), dense_pred);
}

// Packed fits must be bit-identical on every SIMD tier (the popcount
// reductions are integer-exact everywhere, so tier choice cannot matter).
TEST(PackedPipeline, TierInvariantPackedFits) {
  const Encoded data = head(encode_pima(500), 200);

  std::vector<int> reference;
  bool have_reference = false;
  const hdc::simd::Tier initial = hdc::simd::active_tier();
  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(tier);
    hdc::ml::HistGbdtClassifier model;
    model.fit_bits(data.bits, data.y);
    const std::vector<int> pred = model.predict_all_bits(data.bits);
    if (!have_reference) {
      reference = pred;
      have_reference = true;
    } else {
      EXPECT_EQ(pred, reference) << "tier=" << hdc::simd::tier_name(tier);
    }
  }
  hdc::simd::set_tier(initial);
}
