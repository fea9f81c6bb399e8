// Dense-vs-packed model benchmark for the hybrid HDC+ML path; writes
// BENCH_ml.json.
//
// Encodes the Pima protocol rows once (768 patients x --dim bits), then fits
// every downstream model twice on the same labels: once with fit() on the
// dense double matrix and once with fit_bits() on the bit-packed columnar
// BitMatrix (popcount kernels). Fit and predict are
// timed separately; the packed fit + predict is repeated on every supported
// SIMD tier and its predictions are compared against the dense reference —
// the "parity_ok" fields gate the packed path on bit-identical behaviour.
//
// Flags: --dim N (default 10000), --seed S, --reps R (best-of, default 1),
// --budget B (zoo iteration scale, default 1.0), --models CSV subset,
// --out PATH (default BENCH_ml.json), --fast (small dim + reduced budget).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/str.hpp"
#include "util/timer.hpp"

namespace {

using hdc::simd::Tier;
using hdc::util::Timer;

template <typename Fn>
double best_of(std::size_t reps, const Fn& fn) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = r == 0 ? timer.seconds() : std::min(best, timer.seconds());
  }
  return best;
}

struct TierRun {
  Tier tier = Tier::kScalar;
  double fit_sec = 0.0;
  double predict_sec = 0.0;
  bool parity_ok = false;
};

struct ModelResult {
  std::string name;
  double fit_dense_sec = 0.0;
  double predict_dense_sec = 0.0;
  double fit_packed_sec = 0.0;      // at the fastest (last) tier
  double predict_packed_sec = 0.0;  // at the fastest (last) tier
  std::vector<TierRun> tiers;
  [[nodiscard]] bool parity_ok() const {
    for (const TierRun& t : tiers) {
      if (!t.parity_ok) return false;
    }
    return !tiers.empty();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::size_t dim =
      static_cast<std::size_t>(cli.get_int("--dim", fast ? 2000 : 10000));
  const std::uint64_t seed = cli.get_uint("--seed", 2023);
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("--reps", 1));
  const double budget = cli.get_double("--budget", fast ? 0.25 : 1.0);
  const std::string out_path = cli.get_string("--out", "BENCH_ml.json");
  const std::string models_csv = cli.get_string(
      "--models",
      "LGBM,Decision Tree,Random Forest,Logistic Regression,SGD,SVC,KNN");

  // The paper's Pima protocol: 768 rows, class-median imputed, encoded with
  // extractor ranges fit on the full dataset (pure throughput measurement).
  hdc::data::PimaConfig pima_config;
  pima_config.seed = seed;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(pima_config));
  hdc::core::ExtractorConfig extractor_config;
  extractor_config.dimensions = dim;
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(ds);

  const hdc::hv::BitMatrix bits = extractor.transform_bits(ds);
  // Dense mirror expanded from the same bits, so both paths consume the
  // exact same design matrix.
  hdc::ml::Matrix X;
  X.reserve(bits.rows());
  for (std::size_t i = 0; i < bits.rows(); ++i) X.push_back(bits.row_doubles(i));
  const hdc::ml::Labels y = ds.labels();

  const Tier initial_tier = hdc::simd::active_tier();
  std::printf("# bench_ml: rows=%zu dim=%zu reps=%zu budget=%.2f threads=%zu\n",
              bits.rows(), dim, reps, budget,
              hdc::parallel::hardware_threads());

  std::vector<ModelResult> results;
  for (const std::string& name : hdc::util::split(models_csv, ',')) {
    ModelResult res;
    res.name = name;

    // Dense reference: fit() on doubles runs the dense algorithm.
    std::vector<int> reference;
    {
      auto model = hdc::ml::make_model(name, budget);
      res.fit_dense_sec = best_of(reps, [&] {
        model = hdc::ml::make_model(name, budget);
        model->fit(X, y);
      });
      res.predict_dense_sec =
          best_of(reps, [&] { reference = model->predict_all(X); });
    }

    // Packed path, once per supported SIMD tier; parity against the dense
    // reference predictions at every tier.
    for (const Tier tier : hdc::simd::supported_tiers()) {
      hdc::simd::set_tier(tier);
      TierRun run;
      run.tier = tier;
      auto model = hdc::ml::make_model(name, budget);
      run.fit_sec = best_of(reps, [&] {
        model = hdc::ml::make_model(name, budget);
        model->fit_bits(bits, y);
      });
      std::vector<int> packed_pred;
      run.predict_sec =
          best_of(reps, [&] { packed_pred = model->predict_all_bits(bits); });
      run.parity_ok = packed_pred == reference;
      res.tiers.push_back(run);
    }
    hdc::simd::set_tier(initial_tier);
    res.fit_packed_sec = res.tiers.back().fit_sec;
    res.predict_packed_sec = res.tiers.back().predict_sec;

    std::printf("# %-20s fit %8.3fs -> %8.3fs (%5.2fx)  predict %8.3fs -> "
                "%8.3fs (%5.2fx)  parity=%s\n",
                name.c_str(), res.fit_dense_sec, res.fit_packed_sec,
                res.fit_dense_sec / res.fit_packed_sec, res.predict_dense_sec,
                res.predict_packed_sec,
                res.predict_dense_sec / res.predict_packed_sec,
                res.parity_ok() ? "ok" : "FAIL");
    results.push_back(std::move(res));
  }

  double hist_speedup = 0.0;
  bool all_parity = true;
  for (const ModelResult& r : results) {
    if (r.name == "LGBM") hist_speedup = r.fit_dense_sec / r.fit_packed_sec;
    all_parity = all_parity && r.parity_ok();
  }

  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_ml")
      .field("rows", bits.rows())
      .field("dimensions", dim)
      .field("seed", seed)
      .field("reps", reps)
      .field("model_budget", budget)
      .field("hardware_threads", hdc::parallel::hardware_threads())
      .field("active_tier", hdc::simd::tier_name(initial_tier));
  json.key("models").array();
  for (const ModelResult& r : results) {
    json.object().field("name", r.name);
    json.key("fit").object()
        .field("dense_sec", r.fit_dense_sec)
        .field("packed_sec", r.fit_packed_sec)
        .field("speedup", r.fit_dense_sec / r.fit_packed_sec)
        .end();
    json.key("predict").object()
        .field("dense_sec", r.predict_dense_sec)
        .field("packed_sec", r.predict_packed_sec)
        .field("speedup", r.predict_dense_sec / r.predict_packed_sec)
        .end();
    json.field("parity_ok", r.parity_ok()).key("tiers").array();
    for (const TierRun& run : r.tiers) {
      json.object()
          .field("tier", hdc::simd::tier_name(run.tier))
          .field("fit_sec", run.fit_sec)
          .field("predict_sec", run.predict_sec)
          .field("parity_ok", run.parity_ok)
          .end();
    }
    json.end().end();
  }
  json.end();
  hdc::core::ExperimentConfig manifest_config;
  manifest_config.extractor = extractor_config;
  manifest_config.seed = seed;
  manifest_config.model_budget = budget;
  json.field("hist_gbdt_fit_speedup", hist_speedup)
      .field("parity_ok", all_parity)
      .raw_field("manifest", hdc::bench::manifest_json(ds, "pima_m_synthetic",
                                                       manifest_config))
      .end();
  if (!json.write(out_path)) return 1;
  return all_parity ? 0 : 1;
}
