// Runtime observations from Section III-A, as google-benchmark micro-
// benchmarks (formerly bench_runtime; the JSON batch-engine bench now owns
// that name):
//  * NN epoch time is similar for raw features and hypervector inputs
//    (the 32-unit hidden layers dominate only for tiny inputs; the paper
//    reports ~10 ms/epoch either way on its hardware),
//  * LGBM / XGBoost / CatBoost slow down >10x on hypervector inputs,
//  * core HDC primitives (Hamming distance, row encoding) are cheap.
#include <benchmark/benchmark.h>

#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/gbdt.hpp"
#include "ml/hist_gbdt.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/ordered_gbdt.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace {

using hdc::core::ExtractorConfig;
using hdc::core::HdcFeatureExtractor;

struct Workload {
  hdc::data::Dataset dataset;
  hdc::ml::Matrix features;
  hdc::ml::Matrix hypervectors;  // dense 0/1 doubles, for the NN
  hdc::hv::BitMatrix hypervector_bits;  // the same rows packed, for the zoo

  static const Workload& instance() {
    static const Workload w = [] {
      Workload out{hdc::data::impute_class_median(
                       hdc::data::make_pima({130, 70, true, 0.05, 7})),
                   {}, {}, {}};
      out.features = out.dataset.feature_matrix();
      ExtractorConfig config;
      config.dimensions = 10000;
      HdcFeatureExtractor extractor(config);
      extractor.fit(out.dataset);
      out.hypervectors = extractor.transform_to_matrix(out.dataset);
      out.hypervector_bits = extractor.transform_bits(out.dataset);
      return out;
    }();
    return w;
  }
};

void BM_HammingDistance10k(benchmark::State& state) {
  hdc::util::Rng rng(1);
  const auto a = hdc::hv::BitVector::random(10000, rng);
  const auto b = hdc::hv::BitVector::random(10000, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming(b));
  }
}
BENCHMARK(BM_HammingDistance10k);

void BM_EncodePatientRow(benchmark::State& state) {
  const Workload& w = Workload::instance();
  ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(state.range(0));
  HdcFeatureExtractor extractor(config);
  extractor.fit(w.dataset);
  const auto row = w.dataset.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.encode_row(row));
  }
}
BENCHMARK(BM_EncodePatientRow)->Arg(1000)->Arg(10000)->Arg(20000);

void BM_MajorityBundle(benchmark::State& state) {
  hdc::util::Rng rng(2);
  std::vector<hdc::hv::BitVector> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(hdc::hv::BitVector::random(10000, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::hv::majority(inputs));
  }
}
BENCHMARK(BM_MajorityBundle);

// The input type picks the algorithm, as in the library: fit() for dense
// features, fit_bits() for packed hypervectors.
void fit_on(hdc::ml::Classifier& model, const hdc::ml::Matrix& X,
            const hdc::ml::Labels& y) {
  model.fit(X, y);
}
void fit_on(hdc::ml::Classifier& model, const hdc::hv::BitMatrix& X,
            const hdc::ml::Labels& y) {
  model.fit_bits(X, y);
}

template <typename Model, typename Input>
void fit_benchmark(benchmark::State& state, const Input& X,
                   const hdc::data::Dataset& ds) {
  for (auto _ : state) {
    Model model = [] {
      if constexpr (std::is_same_v<Model, hdc::ml::GbdtClassifier>) {
        hdc::ml::GbdtConfig config;
        config.n_rounds = 10;
        return hdc::ml::GbdtClassifier(config);
      } else if constexpr (std::is_same_v<Model, hdc::ml::HistGbdtClassifier>) {
        hdc::ml::HistGbdtConfig config;
        config.n_rounds = 10;
        return hdc::ml::HistGbdtClassifier(config);
      } else if constexpr (std::is_same_v<Model, hdc::ml::OrderedGbdtClassifier>) {
        hdc::ml::OrderedGbdtConfig config;
        config.n_rounds = 10;
        return hdc::ml::OrderedGbdtClassifier(config);
      } else {
        return Model();
      }
    }();
    fit_on(model, X, ds.labels());
    benchmark::DoNotOptimize(model);
  }
}

void BM_XgbFit_Features(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::GbdtClassifier>(state, w.features, w.dataset);
}
void BM_XgbFit_Hypervectors(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::GbdtClassifier>(state, w.hypervector_bits, w.dataset);
}
BENCHMARK(BM_XgbFit_Features)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XgbFit_Hypervectors)->Unit(benchmark::kMillisecond);

void BM_LgbmFit_Features(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::HistGbdtClassifier>(state, w.features, w.dataset);
}
void BM_LgbmFit_Hypervectors(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::HistGbdtClassifier>(state, w.hypervector_bits, w.dataset);
}
BENCHMARK(BM_LgbmFit_Features)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LgbmFit_Hypervectors)->Unit(benchmark::kMillisecond);

void BM_CatBoostFit_Features(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::OrderedGbdtClassifier>(state, w.features, w.dataset);
}
void BM_CatBoostFit_Hypervectors(benchmark::State& state) {
  const Workload& w = Workload::instance();
  fit_benchmark<hdc::ml::OrderedGbdtClassifier>(state, w.hypervector_bits, w.dataset);
}
BENCHMARK(BM_CatBoostFit_Features)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CatBoostFit_Hypervectors)->Unit(benchmark::kMillisecond);

void nn_epoch_benchmark(benchmark::State& state, const hdc::ml::Matrix& X,
                        const hdc::data::Dataset& ds) {
  hdc::nn::SequentialConfig config;
  config.max_epochs = 1;  // measure one epoch per iteration, like the paper
  config.patience = 1;
  config.internal_val_fraction = 0.15;
  for (auto _ : state) {
    hdc::nn::Sequential net(config);
    net.fit(X, ds.labels());
    benchmark::DoNotOptimize(net);
  }
}

void BM_NnEpoch_Features(benchmark::State& state) {
  const Workload& w = Workload::instance();
  nn_epoch_benchmark(state, w.features, w.dataset);
}
void BM_NnEpoch_Hypervectors(benchmark::State& state) {
  const Workload& w = Workload::instance();
  nn_epoch_benchmark(state, w.hypervectors, w.dataset);
}
BENCHMARK(BM_NnEpoch_Features)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NnEpoch_Hypervectors)->Unit(benchmark::kMillisecond);

void BM_KnnPredict_Hypervectors(benchmark::State& state) {
  const Workload& w = Workload::instance();
  hdc::ml::KnnClassifier model;
  model.fit_bits(w.hypervector_bits, w.dataset.labels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(w.hypervectors[0]));
  }
}
BENCHMARK(BM_KnnPredict_Hypervectors)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
