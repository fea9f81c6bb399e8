#include "core/grid.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/manifest.hpp"
#include "data/split.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace hdc::core {

namespace {

std::vector<std::string> model_names(const GridConfig& config) {
  if (!config.models.empty()) return config.models;
  std::vector<std::string> names;
  for (const ml::ZooEntry& entry : ml::paper_model_zoo(1.0)) {
    names.push_back(entry.name);
  }
  return names;
}

/// Per-dataset fold partitions, fixed before any task runs so every task
/// reads immutable index vectors.
struct DatasetFolds {
  std::vector<std::vector<std::size_t>> train;  // kfold entries
  std::vector<std::vector<std::size_t>> test;
};

/// One (dataset, fold)'s encoding, shared by that fold's model tasks: the
/// first to run materialises it, the last to finish drops it.
struct FoldSlot {
  std::once_flag once;
  std::shared_ptr<const FoldData> fold;
  std::atomic<std::size_t> users{0};
};

GridResult run_grid_on_pool(std::span<const GridDatasetSpec> datasets,
                            const GridConfig& config,
                            const std::vector<std::string>& models) {
  const std::size_t k = config.kfold;

  // Fold partitions are a pure function of (labels, k, seed).
  std::vector<DatasetFolds> folds(datasets.size());
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const data::StratifiedKFold kf(datasets[d].data->labels(), k,
                                   config.experiment.seed);
    for (std::size_t f = 0; f < k; ++f) {
      folds[d].train.push_back(kf.fold_train(f));
      folds[d].test.push_back(kf.fold_test(f));
    }
  }

  // Pre-sized so tasks write disjoint cells with no locking:
  // slots[d * k + f]; scores[d][m][f]; nns[d].
  std::vector<FoldSlot> slots(datasets.size() * k);
  for (FoldSlot& slot : slots) slot.users.store(models.size());
  std::vector<std::vector<std::vector<double>>> scores(
      datasets.size(), std::vector<std::vector<double>>(
                           models.size(), std::vector<double>(k, 0.0)));
  std::vector<NnProtocolResult> nns(datasets.size());

  // Declared after everything its tasks reference, so that on any exit its
  // destructor drains and joins the workers before that state is destroyed.
  const std::size_t workers =
      config.threads == 0 ? parallel::hardware_threads() : config.threads;
  parallel::ThreadPool pool(workers);

  GridResult result;
  result.stats.workers = workers;

  // nn(d) first: the Sequential NN protocol is one long task per dataset
  // (its repeats share early-stopping state), so it starts before the folds.
  if (config.nn_repeats > 0) {
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      pool.submit([&, d] {
        obs::Span span("grid.nn");
        nns[d] = nn_protocol(*datasets[d].data, config.mode, config.nn_repeats,
                             config.experiment, config.nn);
      });
      ++result.stats.nn_tasks;
    }
  }

  // fit(d, f, m) in (d, f, m) order, so a fold's model tasks run together
  // and few folds are resident at once.
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (std::size_t f = 0; f < k; ++f) {
      for (std::size_t m = 0; m < models.size(); ++m) {
        pool.submit([&, d, f, m] {
          FoldSlot& slot = slots[d * k + f];
          std::call_once(slot.once, [&] {
            obs::Span span("grid.encode");
            obs::counter("experiment.folds").increment();
            slot.fold = std::make_shared<const FoldData>(materialize_fold(
                *datasets[d].data, folds[d].train[f], folds[d].test[f],
                config.mode, config.experiment, /*allow_packed=*/true));
          });
          {
            obs::Span span("grid.fit");
            const auto model =
                ml::make_model(models[m], config.experiment.model_budget);
            fit_fold_model(*model, *slot.fold);
            scores[d][m][f] = fold_accuracy(*model, *slot.fold);
          }
          if (slot.users.fetch_sub(1) == 1) slot.fold.reset();
        });
        ++result.stats.model_tasks;
      }
    }
  }
  result.stats.encode_tasks = slots.size();

  pool.wait_idle();

  result.stats.cache_hits = result.stats.model_tasks;
  result.stats.dedup_ratio =
      slots.empty() ? 0.0
                    : static_cast<double>(result.stats.model_tasks) /
                          static_cast<double>(slots.size());
  result.stats.tasks_executed = pool.tasks_completed();

  // Reduce on the calling thread, each cell's scores in fold order.
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    GridDatasetResult ds_result;
    ds_result.dataset = datasets[d].name;
    for (std::size_t m = 0; m < models.size(); ++m) {
      ds_result.models.push_back(
          {models[m], eval::summarize_folds(std::move(scores[d][m]))});
    }
    if (config.nn_repeats > 0) {
      ds_result.has_nn = true;
      ds_result.nn = nns[d];
    }
    result.datasets.push_back(std::move(ds_result));
  }
  return result;
}

}  // namespace

GridResult run_grid(std::span<const GridDatasetSpec> datasets,
                    const GridConfig& config) {
  if (config.kfold < 2) throw std::invalid_argument("run_grid: kfold < 2");
  if (!config.scheduled) {
    throw std::invalid_argument("run_grid: scheduled = false is not supported");
  }
  for (const GridDatasetSpec& spec : datasets) {
    if (spec.data == nullptr) {
      throw std::invalid_argument("run_grid: null dataset " + spec.name);
    }
  }
  const std::vector<std::string> models = model_names(config);
  // Resolve every name eagerly: make_model throws on unknown names, and a
  // throw from inside a pool task would terminate the process instead.
  for (const std::string& model : models) {
    (void)ml::make_model(model, config.experiment.model_budget);
  }
  GridResult result = run_grid_on_pool(datasets, config, models);
  // Provenance over the whole sweep (after the run, so the embedded obs
  // snapshot includes the grid's own counters).
  if (!datasets.empty()) {
    result.manifest =
        make_run_manifest(*datasets[0].data, datasets[0].name, config.experiment);
    std::string names;
    std::uint64_t hash = 0;
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    for (const GridDatasetSpec& spec : datasets) {
      if (!names.empty()) names.push_back(',');
      names += spec.name;
      hash = mix_hash(hash, dataset_fingerprint(*spec.data));
      rows += spec.data->n_rows();
      cols = std::max<std::uint64_t>(cols, spec.data->n_cols());
    }
    result.manifest.dataset = std::move(names);
    result.manifest.dataset_hash = hash;
    result.manifest.rows = rows;
    result.manifest.cols = cols;
    result.manifest.threads = result.stats.workers;
  }
  return result;
}

}  // namespace hdc::core
