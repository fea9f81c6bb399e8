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
#include "core/grid.hpp"
#include "cv_oracle.hpp"
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
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

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
  expect_parity(
      encode_pima(), [] { return std::make_unique<hdc::ml::KnnClassifier>(); },
      [](const hdc::ml::Classifier&, const hdc::ml::Classifier&) {});
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
// KNN through hv::top_k_neighbors: tie oracle
// ---------------------------------------------------------------------------

/// The dense vote, as KNN ran it before its packed path moved onto the
/// shared search engine: the k smallest (squared distance, label) pairs by
/// nth_element, and the label-1 fraction among them.
double oracle_vote(std::vector<std::pair<double, int>> dist, std::size_t k) {
  k = std::min(k, dist.size());
  std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dist.end());
  double votes_pos = 0.0;
  double votes_total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    votes_total += 1.0;
    if (dist[i].second == 1) votes_pos += 1.0;
  }
  return votes_total > 0.0 ? votes_pos / votes_total : 0.0;
}

/// Oracle votes of every query row `x` against the dense rows `db`.
std::vector<double> oracle_votes(const Matrix& db, const Labels& y, const Matrix& queries,
                                 std::size_t k) {
  std::vector<double> out;
  for (const std::vector<double>& x : queries) {
    std::vector<std::pair<double, int>> dist;
    for (std::size_t i = 0; i < db.size(); ++i) {
      double d2 = 0.0;
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double diff = db[i][j] - x[j];
        d2 += diff * diff;
      }
      dist.emplace_back(d2, y[i]);
    }
    out.push_back(oracle_vote(std::move(dist), k));
  }
  return out;
}

/// A KNN body in the row order fit_bits() kept before the store was
/// label-ordered: rows exactly as given.
std::string unsorted_knn_body(const BitMatrix& bits, const Labels& y, std::size_t k) {
  std::ostringstream out;
  hdc::util::serde::Writer w(out);
  w.tag("ml.knn").tag("v2").nl();
  w.u64(k).u64(0).nl();
  w.tag("packed").nl();
  hdc::hv::write_packed(w, bits.row_major());
  w.vec_int(y).nl();
  return out.str();
}

// 128-bit rows drawn from 8 patterns with both labels on every pattern, and
// label 1 first in row order, so the k-th nearest distance is nearly always
// tied across labels. The (distance, label) oracle breaks those ties toward
// label 0; the engine breaks them by row index. KNN must give the oracle's
// vote after every way in: fit_bits, fit_shards at 1 and 3 shards, and
// load_state of a body in the old unsorted row order — on every SIMD tier.
TEST(PackedKnn, TiedVotesMatchLabelOrderOracle) {
  constexpr std::size_t kBits = 128;
  constexpr std::size_t kPatterns = 8;
  constexpr std::size_t kRows = 48;
  hdc::util::Rng rng(2727);
  std::vector<hdc::hv::BitVector> patterns;
  for (std::size_t p = 0; p < kPatterns; ++p) {
    patterns.push_back(hdc::hv::BitVector::random(kBits, rng));
  }
  std::vector<hdc::hv::BitVector> rows;
  Labels y;
  for (std::size_t i = 0; i < kRows; ++i) {
    hdc::hv::BitVector row = patterns[i % kPatterns];
    if (i >= 2 * kPatterns && rng.bernoulli(0.5)) row.flip(rng.below(kBits));
    rows.push_back(std::move(row));
    y.push_back(i < kPatterns ? 1 : (i < 2 * kPatterns ? 0 : (rng.bernoulli(0.5) ? 1 : 0)));
  }
  // Queries: the patterns, patterns one flip away, and random rows; 300 of
  // them, so one predict_all_bits call spans several engine chunks.
  std::vector<hdc::hv::BitVector> query_rows;
  for (std::size_t q = 0; q < 300; ++q) {
    if (q % 3 == 2) {
      query_rows.push_back(hdc::hv::BitVector::random(kBits, rng));
      continue;
    }
    query_rows.push_back(patterns[q % kPatterns]);
    if (q % 3 == 1) query_rows.back().flip(rng.below(kBits));
  }
  const BitMatrix db = BitMatrix::from_rows(hdc::hv::PackedHVs::pack(rows));
  const BitMatrix queries = BitMatrix::from_rows(hdc::hv::PackedHVs::pack(query_rows));
  Matrix db_dense;
  for (std::size_t i = 0; i < db.rows(); ++i) db_dense.push_back(db.row_doubles(i));
  Matrix q_dense;
  Matrix q_fractional;  // not 0/1: predict_proba runs the dense loop
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    q_dense.push_back(queries.row_doubles(q));
    q_fractional.push_back(q_dense.back());
    q_fractional.back()[q % kBits] = 0.5;
  }

  // The same label-partitioned rows the classifier stores, searched with
  // explicit 1- and 4-worker pools: the engine's (distance, index) order
  // must pick the oracle's (distance, label) pairs at any worker count.
  std::vector<std::size_t> by_label;
  for (const int label : {0, 1}) {
    for (std::size_t i = 0; i < kRows; ++i) {
      if (y[i] == label) by_label.push_back(i);
    }
  }
  const BitMatrix sorted_db = db.subset(by_label);
  Labels sorted_y;
  for (const std::size_t i : by_label) sorted_y.push_back(y[i]);
  hdc::parallel::ThreadPool one(1);
  hdc::parallel::ThreadPool four(4);

  const hdc::simd::Tier initial = hdc::simd::active_tier();
  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(tier);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                std::size_t{7}, kRows + 3}) {
      const std::string where =
          std::string("tier=") + hdc::simd::tier_name(tier) + " k=" + std::to_string(k);
      const std::vector<double> expected = oracle_votes(db_dense, y, q_dense, k);
      const std::vector<double> expected_fractional =
          oracle_votes(db_dense, y, q_fractional, k);
      std::vector<int> expected_pred;
      for (const double v : expected) expected_pred.push_back(v >= 0.5 ? 1 : 0);

      for (hdc::parallel::ThreadPool* pool : {&one, &four}) {
        hdc::hv::SearchOptions options;
        options.pool = pool;
        const auto nearest =
            hdc::hv::top_k_neighbors(queries.row_major(), sorted_db.row_major(), k, options);
        for (std::size_t q = 0; q < nearest.size(); ++q) {
          std::size_t positive = 0;
          for (const hdc::hv::Neighbor& n : nearest[q]) {
            positive += sorted_y[n.index] == 1 ? 1 : 0;
          }
          EXPECT_EQ(static_cast<double>(positive) / static_cast<double>(nearest[q].size()),
                    expected[q])
              << where << " workers=" << pool->size() << " query " << q;
        }
      }

      hdc::ml::KnnConfig config;
      config.k = k;
      hdc::ml::KnnClassifier fitted(config);
      fitted.fit_bits(db, y);
      hdc::ml::KnnClassifier one_shard(config);
      one_shard.fit_shards(hdc::ml::MaterializedShardSource(shard_by(db, kRows), y));
      hdc::ml::KnnClassifier three_shards(config);
      three_shards.fit_shards(hdc::ml::MaterializedShardSource(shard_by(db, kRows / 3), y));
      hdc::ml::KnnClassifier loaded(config);
      std::istringstream body(unsorted_knn_body(db, y, k));
      loaded.load_state(body);
      // Saved again, the old body differs only in row order: it now equals
      // the label-ordered body of a fresh fit.
      EXPECT_EQ(state_of(loaded), state_of(fitted)) << where;

      const std::pair<const char*, const hdc::ml::KnnClassifier*> models[] = {
          {"fit_bits", &fitted}, {"fit_shards/1", &one_shard},
          {"fit_shards/3", &three_shards}, {"load_state", &loaded}};
      for (const auto& [route, model] : models) {
        EXPECT_EQ(model->predict_all_bits(queries), expected_pred) << where << " " << route;
        for (std::size_t q = 0; q < queries.rows(); q += 7) {
          EXPECT_EQ(model->predict_proba(q_dense[q]), expected[q])
              << where << " " << route << " query " << q;
          EXPECT_EQ(model->predict_proba(q_fractional[q]), expected_fractional[q])
              << where << " " << route << " fractional query " << q;
          const BitMatrix lone = queries.subset(std::vector<std::size_t>{q});
          EXPECT_EQ(model->predict_all_bits(lone).front(), expected_pred[q])
              << where << " " << route << " lone query " << q;
        }
      }
    }
  }
  hdc::simd::set_tier(initial);
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

  // The grid hands every fold to fit_bits; the oracle re-runs the same
  // folds on dense doubles (allow_packed=false) through fit().
  const std::vector<hdc::core::GridDatasetSpec> specs = {{"pima_m", &ds}};
  hdc::core::GridConfig grid;
  grid.models = {"Decision Tree"};
  grid.kfold = 5;
  grid.mode = mode;
  grid.experiment = config;
  const hdc::eval::CvResult packed =
      hdc::core::run_grid(specs, grid).datasets.front().models.front().cv;
  const hdc::eval::CvResult dense = hdc::oracle::serial_kfold_cv(
      ds, "Decision Tree", mode, 5, config, /*allow_packed=*/false);

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
