// grid_paper: the paper's research protocol over Pima M and Sylhet on a
// fixed 4 threads — core::run_grid (scheduled, stratified 10-fold, Logistic
// Regression / Decision Tree / LGBM, no NN) plus the 1-NN Hamming
// leave-one-out (hamming_loo_metrics) on each dataset. One protocol pass is
// the unit of work (grid_s = p50_us).
//
// Checks: every pass's LOO accuracy must equal the set-up reference, which
// runs the same search on a single worker; every pass must reproduce the
// first pass's cv_accuracy; and with --expect-cv-accuracy (run.py passes the
// value recorded in reference.json for the default seed) cv_accuracy must
// equal it exactly.
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "core/hamming_classifier.hpp"
#include "data/preprocess.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "ml/zoo.hpp"
#include "parallel/thread_pool.hpp"

namespace e2e {
namespace {

using hdc::data::Dataset;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kFolds = 10;
constexpr std::size_t kGridSetups = 5;

struct Datasets {
  Dataset pima_m;
  Dataset sylhet;
};

Datasets make_datasets(std::uint64_t seed) {
  hdc::data::PimaConfig pima;
  pima.seed = seed;
  hdc::data::SylhetConfig sylhet;
  sylhet.seed = seed + 1;
  return {hdc::data::impute_class_median(hdc::data::make_pima(pima)),
          hdc::data::make_sylhet(sylhet)};
}

/// Paper-protocol LOO accuracy: extractor fit on the whole dataset, every
/// row encoded, each classified by its nearest other row.
double loo_accuracy(const Dataset& ds, hdc::parallel::ThreadPool& pool) {
  hdc::core::HdcFeatureExtractor extractor;
  extractor.fit(ds);
  return hdc::core::hamming_loo_metrics(extractor.transform(ds, &pool), ds.labels(), &pool)
      .accuracy;
}

struct Pass {
  double seconds = 0.0;
  double loo_s = 0.0;
  hdc::core::GridStats stats;
  std::vector<double> accuracies;  // grid cells in order, then LOO per dataset
  double cv_accuracy = 0.0;        // their mean
};

Pass run_pass(const std::vector<hdc::core::GridDatasetSpec>& specs,
              const hdc::core::GridConfig& config, hdc::parallel::ThreadPool& pool) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  const hdc::core::GridResult grid = hdc::core::run_grid(specs, config);
  const Clock::time_point loo_start = Clock::now();
  std::vector<double> loo;
  for (const hdc::core::GridDatasetSpec& spec : specs) {
    loo.push_back(loo_accuracy(*spec.data, pool));
  }
  pass.loo_s = seconds_since(loo_start);
  pass.seconds = seconds_since(start);
  pass.stats = grid.stats;
  for (const hdc::core::GridDatasetResult& ds : grid.datasets) {
    for (const hdc::core::GridModelResult& cell : ds.models) {
      pass.accuracies.push_back(cell.cv.mean_accuracy);
    }
  }
  pass.accuracies.insert(pass.accuracies.end(), loo.begin(), loo.end());
  for (const double a : pass.accuracies) pass.cv_accuracy += a;
  pass.cv_accuracy /= static_cast<double>(pass.accuracies.size());
  return pass;
}

}  // namespace

void run_grid_paper(const Options& options, Report& report) {
  hdc::core::GridConfig config;
  config.models = {"Logistic Regression", "Decision Tree", "LGBM"};
  config.kfold = kFolds;
  config.threads = kThreads;
  config.scheduled = true;
  config.nn_repeats = 0;
  config.experiment.seed = options.seed;

  // Set-up: generate both datasets, compute the LOO reference on one worker,
  // and encode every fold once (warms the encoders and the fold path the
  // grid's encode tasks take).
  Datasets data;
  const std::vector<hdc::core::GridDatasetSpec> specs = {{"pima_m", &data.pima_m},
                                                         {"sylhet", &data.sylhet}};
  std::vector<double> loo_reference;
  std::vector<double> setups;
  PeakRss peak;
  for (std::size_t s = 0; s < setup_count(options, kGridSetups); ++s) {
    const Clock::time_point start = Clock::now();
    data = make_datasets(options.seed);
    hdc::parallel::ThreadPool serial(1);
    loo_reference.clear();
    for (const auto& spec : specs) {
      loo_reference.push_back(loo_accuracy(*spec.data, serial));
      const hdc::data::StratifiedKFold folds(spec.data->labels(), kFolds,
                                             config.experiment.seed);
      for (std::size_t f = 0; f < kFolds; ++f) {
        (void)hdc::core::materialize_fold(*spec.data, folds.fold_train(f), folds.fold_test(f),
                                          config.mode, config.experiment,
                                          /*allow_packed=*/true);
      }
    }
    setups.push_back(seconds_since(start));
    peak.setup_done();
  }
  peak.start_timed_phase();
  std::printf("# grid_paper: datasets pima_m=%zu sylhet=%zu rows, %zu-fold, models=%zu, "
              "threads=%zu, clients=1\n",
              data.pima_m.n_rows(), data.sylhet.n_rows(), kFolds, config.models.size(),
              kThreads);

  hdc::parallel::ThreadPool pool(kThreads);
  const double rows = static_cast<double>(data.pima_m.n_rows() + data.sylhet.n_rows());

  double first_cv = -1.0;
  const auto phase = [&](double seconds, const char* name) {
    std::vector<Pass> passes;
    ClientLog log;
    const Clock::time_point start = Clock::now();
    while (passes.empty() || seconds_since(start) < seconds) {
      Pass pass = run_pass(specs, config, pool);
      const std::size_t loo_at = pass.accuracies.size() - loo_reference.size();
      std::uint64_t checks = loo_reference.size() + 1;
      std::uint64_t matched = 0;
      for (std::size_t d = 0; d < loo_reference.size(); ++d) {
        matched += pass.accuracies[loo_at + d] == loo_reference[d] ? 1 : 0;
      }
      if (first_cv < 0.0) first_cv = pass.cv_accuracy;
      matched += pass.cv_accuracy == first_cv ? 1 : 0;
      if (options.has_expected_cv) {
        ++checks;
        if (pass.cv_accuracy == options.expected_cv) {
          ++matched;
        } else {
          std::fprintf(stderr, "# cv_accuracy %.17g != recorded %.17g\n",
                       pass.cv_accuracy, options.expected_cv);
        }
      }
      if (matched != checks) {
        report.errors.push_back(std::string(name) + ": " + std::to_string(checks - matched) +
                                " of " + std::to_string(checks) + " results differ from "
                                "their reference");
      }
      log.attempted += 1 + checks;
      log.failed += checks - matched;
      log.matched += matched;
      log.rows += checks;
      passes.push_back(std::move(pass));
    }
    print_phase(name, log);
    std::printf("# %s: cv_accuracy=%.17g\n", name, passes.back().cv_accuracy);
    report.attempted += log.attempted;
    report.failed += log.failed;
    return std::tuple{passes, log};
  };

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  auto [passes, log] = phase(phase_s, "grid_paper passes");
  std::vector<double> pass_s;
  for (const Pass& pass : passes) pass_s.push_back(pass.seconds);
  if (!options.trace) {
    report.set("setup_s", median(setups));
    report.set("p50_us", median(pass_s) * 1e6);
    report.set("p99_us", quantile(pass_s, 0.99) * 1e6);
    // Passes per second of pass time (the checks between passes excluded).
    report.set("qps", static_cast<double>(passes.size()) /
                          std::accumulate(pass_s.begin(), pass_s.end(), 0.0));
    report.set("rows_per_s", rows * static_cast<double>(kFolds + 1) / median(pass_s));
    report.set("accuracy", passes.back().cv_accuracy);
    report.set("match_fraction",
               static_cast<double>(log.matched) / static_cast<double>(log.rows));
    report.set("success_fraction",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak.mb());
    return;
  }

  const ObsScope obs;
  auto [traced, traced_log] = phase(phase_s, "grid_paper passes (traced)");
  const Pass& last = traced.back();
  std::vector<double> traced_s;
  for (const Pass& pass : traced) traced_s.push_back(pass.seconds);
  report.set("trace.overhead_fraction", overhead_fraction(median(pass_s), median(traced_s)));
  report.set("grid.encode_tasks", static_cast<double>(last.stats.encode_tasks));
  report.set("grid.cache_hits", static_cast<double>(last.stats.cache_hits));
  report.set("grid.cache_misses", static_cast<double>(last.stats.cache_misses));
  report.set("grid.dedup_ratio", last.stats.dedup_ratio);
  report.set("grid.tasks_executed", static_cast<double>(last.stats.tasks_executed));
  report.set("grid.steals", static_cast<double>(last.stats.steals));
  report.set("grid.loo_s", last.loo_s);

  // Busy time of the grid's two task bodies, called directly on this
  // thread: every fold's encode (materialize_fold), and each cell's fit on
  // fold 0 scaled by the fold count (fitting all of them would repeat the
  // whole pass serially).
  double encode_s = 0.0;
  double fit_s = 0.0;
  for (const hdc::core::GridDatasetSpec& spec : specs) {
    const hdc::data::StratifiedKFold folds(spec.data->labels(), kFolds, config.experiment.seed);
    std::optional<hdc::core::FoldData> first;
    for (std::size_t f = 0; f < kFolds; ++f) {
      const Clock::time_point start = Clock::now();
      hdc::core::FoldData fold = hdc::core::materialize_fold(
          *spec.data, folds.fold_train(f), folds.fold_test(f), config.mode,
          config.experiment, /*allow_packed=*/true);
      encode_s += seconds_since(start);
      if (f == 0) first = std::move(fold);
    }
    for (const std::string& name : config.models) {
      const auto model = hdc::ml::make_model(name, config.experiment.model_budget);
      const Clock::time_point start = Clock::now();
      hdc::core::fit_fold_model(*model, *first);
      fit_s += seconds_since(start) * static_cast<double>(kFolds);
    }
  }
  report.set("grid.fold_encode_s", encode_s);
  report.set("grid.model_fit_s", fit_s);
}

}  // namespace e2e
