#include "core/experiment.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/hamming_classifier.hpp"
#include "data/split.hpp"
#include "eval/metrics.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace hdc::core {

std::string to_string(InputMode mode) {
  return mode == InputMode::kRawFeatures ? "Features" : "Hypervectors";
}

FoldData materialize_fold(const data::Dataset& ds,
                          std::span<const std::size_t> train,
                          std::span<const std::size_t> test, InputMode mode,
                          const ExperimentConfig& config, bool allow_packed) {
  FoldData fold;
  const std::vector<std::size_t> train_vec(train.begin(), train.end());
  const std::vector<std::size_t> test_vec(test.begin(), test.end());
  const data::Dataset train_ds = ds.subset(train_vec);
  const data::Dataset test_ds = ds.subset(test_vec);

  if (mode == InputMode::kRawFeatures) {
    fold.train_X = train_ds.feature_matrix();
    fold.test_X = test_ds.feature_matrix();
  } else {
    obs::Span span("experiment.encode");
    HdcFeatureExtractor extractor(config.extractor);
    extractor.fit(train_ds);
    if (allow_packed) {
      fold.train_bits = extractor.transform_bits(train_ds);
      fold.test_bits = extractor.transform_bits(test_ds);
    } else {
      fold.train_X = extractor.transform_to_matrix(train_ds);
      fold.test_X = extractor.transform_to_matrix(test_ds);
    }
  }
  fold.train_y = train_ds.labels();
  fold.test_y = test_ds.labels();
  return fold;
}

void fit_fold_model(ml::Classifier& model, const FoldData& fold) {
  if (fold.train_bits) {
    model.fit_bits(*fold.train_bits, fold.train_y);
  } else {
    model.fit(fold.train_X, fold.train_y);
  }
}

double fold_accuracy(const ml::Classifier& model, const FoldData& fold) {
  return fold.test_bits ? model.accuracy_bits(*fold.test_bits, fold.test_y)
                        : model.accuracy(fold.test_X, fold.test_y);
}

eval::BinaryMetrics holdout_metrics(const data::Dataset& ds,
                                    const std::string& model_name, InputMode mode,
                                    double test_fraction,
                                    const ExperimentConfig& config) {
  const data::TrainTestIndices split =
      data::stratified_split(ds.labels(), test_fraction, config.seed);
  const FoldData fold = materialize_fold(ds, split.train, split.test, mode,
                                         config, /*allow_packed=*/true);
  const auto model = ml::make_model(model_name, config.model_budget);
  {
    obs::Span fit_span("experiment.fit");
    fit_fold_model(*model, fold);
  }
  obs::Span eval_span("experiment.eval");
  return eval::compute_metrics(fold.test_y,
                               fold.test_bits
                                   ? model->predict_all_bits(*fold.test_bits)
                                   : model->predict_all(fold.test_X));
}

eval::BinaryMetrics hamming_loo(const data::Dataset& ds,
                                const ExperimentConfig& config) {
  // threads > 0 runs encode + search on a dedicated pool of that size; the
  // result is the same either way, only the wall time changes.
  std::optional<parallel::ThreadPool> local_pool;
  parallel::ThreadPool* pool = nullptr;
  if (config.threads > 0) pool = &local_pool.emplace(config.threads);

  HdcFeatureExtractor extractor(config.extractor);
  extractor.fit(ds);
  std::vector<hv::BitVector> vectors;
  {
    obs::Span encode_span("experiment.encode");
    vectors = extractor.transform(ds, pool);
  }
  obs::Span search_span("experiment.search");
  return hamming_loo_metrics(vectors, ds.labels(), pool);
}

ExperimentResult hamming_loo_observed(const data::Dataset& ds,
                                      const ExperimentConfig& config,
                                      std::string_view dataset_name) {
  ExperimentResult result;
  result.metrics = hamming_loo(ds, config);
  result.obs = obs::snapshot();
  result.manifest = make_run_manifest(ds, dataset_name, config);
  return result;
}

NnProtocolResult nn_protocol(const data::Dataset& ds, InputMode mode,
                             std::size_t repeats, const ExperimentConfig& config,
                             nn::SequentialConfig nn_config) {
  if (repeats == 0) throw std::invalid_argument("nn_protocol: zero repeats");
  NnProtocolResult result;
  std::vector<double> test_accs;
  test_accs.reserve(repeats);

  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const std::uint64_t rep_seed = util::mix_seed(config.seed, rep + 1);
    const data::TrainValTestIndices split =
        data::stratified_split3(ds.labels(), 0.15, 0.15, rep_seed);

    // Encode (or pass through) with extractor fitted on the training rows.
    ExperimentConfig rep_config = config;
    rep_config.extractor.seed = util::mix_seed(config.extractor.seed, rep);
    // The Sequential NN consumes dense matrices; keep this protocol unpacked.
    FoldData tt = materialize_fold(ds, split.train, split.test, mode, rep_config,
                                   /*allow_packed=*/false);
    const data::Dataset val_ds = ds.subset(split.val);
    ml::Matrix val_X;
    if (mode == InputMode::kRawFeatures) {
      val_X = val_ds.feature_matrix();
    } else {
      HdcFeatureExtractor extractor(rep_config.extractor);
      extractor.fit(ds.subset(std::vector<std::size_t>(split.train.begin(),
                                                       split.train.end())));
      val_X = extractor.transform_to_matrix(val_ds);
    }

    nn::SequentialConfig cfg = nn_config;
    cfg.seed = util::mix_seed(rep_seed, 7);
    nn::Sequential net(cfg);
    const nn::TrainHistory history =
        net.fit_with_validation(tt.train_X, tt.train_y, val_X, val_ds.labels());

    std::size_t hits = 0;
    for (std::size_t i = 0; i < tt.test_X.size(); ++i) {
      if (net.predict(tt.test_X[i]) == tt.test_y[i]) ++hits;
    }
    const double acc = static_cast<double>(hits) /
                       static_cast<double>(tt.test_X.size());
    test_accs.push_back(acc);

    std::size_t val_hits = 0;
    for (std::size_t i = 0; i < val_X.size(); ++i) {
      if (net.predict(val_X[i]) == val_ds.label(i)) ++val_hits;
    }
    result.mean_val_accuracy += static_cast<double>(val_hits) /
                                static_cast<double>(val_X.size());
    result.mean_epochs += static_cast<double>(history.train_loss.size());
  }

  double sum = 0.0;
  for (const double a : test_accs) sum += a;
  result.mean_test_accuracy = sum / static_cast<double>(repeats);
  double var = 0.0;
  for (const double a : test_accs) {
    const double diff = a - result.mean_test_accuracy;
    var += diff * diff;
  }
  result.stddev_test_accuracy = std::sqrt(var / static_cast<double>(repeats));
  result.mean_val_accuracy /= static_cast<double>(repeats);
  result.mean_epochs /= static_cast<double>(repeats);
  return result;
}

}  // namespace hdc::core
