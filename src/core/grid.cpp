#include "core/grid.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/fold_cache.hpp"
#include "core/manifest.hpp"
#include "data/split.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "parallel/task_graph.hpp"
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

/// Per-dataset fold partitions, fixed before the graph runs so every task
/// reads immutable index vectors.
struct DatasetFolds {
  std::vector<std::vector<std::size_t>> train;  // kfold entries
  std::vector<std::vector<std::size_t>> test;
};

GridResult run_grid_scheduled(std::span<const GridDatasetSpec> datasets,
                              const GridConfig& config,
                              const std::vector<std::string>& models) {
  using parallel::TaskGraph;

  const std::size_t workers =
      config.threads == 0 ? parallel::hardware_threads() : config.threads;
  parallel::ThreadPool pool(workers);
  TaskGraph graph;
  FoldEncodingCache cache;
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

  // Result slots, pre-sized so tasks write disjoint cells with no locking.
  // scores[d][m][f]; cvs[d][m]; nns[d].
  std::vector<std::vector<std::vector<double>>> scores(
      datasets.size(), std::vector<std::vector<double>>(
                           models.size(), std::vector<double>(k, 0.0)));
  std::vector<std::vector<eval::CvResult>> cvs(
      datasets.size(), std::vector<eval::CvResult>(models.size()));
  std::vector<NnProtocolResult> nns(datasets.size());

  GridResult result;
  result.stats.workers = workers;

  const auto fold_key = [&](std::size_t d, std::size_t f) {
    FoldKey key;
    key.dataset = datasets[d].name;
    key.cv_seed = config.experiment.seed;
    key.fold = static_cast<std::uint32_t>(f);
    key.dimensions = config.experiment.extractor.dimensions;
    key.extractor_seed = config.experiment.extractor.seed;
    key.mode = config.mode;
    return key;
  };

  // encode(d, f) tasks: each fold is materialised once and shared.
  std::vector<std::vector<TaskGraph::TaskId>> encode_ids(datasets.size());
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (std::size_t f = 0; f < k; ++f) {
      encode_ids[d].push_back(graph.add("grid.encode", [&, d, f] {
        obs::counter("experiment.folds").increment();
        cache.put(fold_key(d, f),
                  std::make_shared<const FoldData>(materialize_fold(
                      *datasets[d].data, folds[d].train[f], folds[d].test[f],
                      config.mode, config.experiment, /*allow_packed=*/true)),
                  models.size());
      }));
      ++result.stats.encode_tasks;
    }
  }

  // fit/eval(d, m, f) tasks, fanned out over the shared encodings.
  std::vector<std::vector<std::vector<TaskGraph::TaskId>>> model_ids(
      datasets.size(),
      std::vector<std::vector<TaskGraph::TaskId>>(models.size()));
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (std::size_t f = 0; f < k; ++f) {
        const auto body = [&, d, m, f] {
          const FoldKey key = fold_key(d, f);
          const std::shared_ptr<const FoldData> fold = cache.acquire(key);
          // The encode task this one depends on put the entry, and it is
          // only evicted after this task's release().
          if (fold == nullptr) {
            throw std::logic_error("run_grid: fold missing from the cache");
          }
          const auto model =
              ml::make_model(models[m], config.experiment.model_budget);
          fit_fold_model(*model, *fold);
          scores[d][m][f] = fold_accuracy(*model, *fold);
          cache.release(key);
        };
        model_ids[d][m].push_back(
            graph.add("grid.fit", body, {encode_ids[d][f]}));
        ++result.stats.model_tasks;
      }
    }
  }

  // reduce(d, m) tasks: aggregate fold scores in fold order.
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      graph.add(
          "grid.reduce",
          [&, d, m] { cvs[d][m] = eval::summarize_folds(scores[d][m]); },
          std::span<const TaskGraph::TaskId>(model_ids[d][m]));
      ++result.stats.reduce_tasks;
    }
  }

  // nn(d) tasks: the Sequential NN repeated-holdout protocol, one per
  // dataset (its repeats share early-stopping state, so it stays one task).
  if (config.nn_repeats > 0) {
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      graph.add("grid.nn", [&, d] {
        nns[d] = nn_protocol(*datasets[d].data, config.mode, config.nn_repeats,
                             config.experiment, config.nn);
      });
      ++result.stats.nn_tasks;
    }
  }

  graph.run(&pool);

  const FoldEncodingCache::Stats cache_stats = cache.stats();
  result.stats.cache_hits = cache_stats.hits;
  result.stats.cache_misses = cache_stats.misses;
  result.stats.cache_evictions = cache_stats.evictions;
  result.stats.cache_peak_entries = cache_stats.peak_entries;
  result.stats.dedup_ratio =
      result.stats.encode_tasks == 0
          ? 0.0
          : static_cast<double>(cache_stats.hits) /
                static_cast<double>(result.stats.encode_tasks);
  result.stats.tasks_executed = graph.executed();
  result.stats.steals = graph.steals();

  for (std::size_t d = 0; d < datasets.size(); ++d) {
    GridDatasetResult ds_result;
    ds_result.dataset = datasets[d].name;
    for (std::size_t m = 0; m < models.size(); ++m) {
      ds_result.models.push_back({models[m], std::move(cvs[d][m])});
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
  // throw from inside a scheduled task would take down the pool instead.
  for (const std::string& model : models) {
    (void)ml::make_model(model, config.experiment.model_budget);
  }
  GridResult result = run_grid_scheduled(datasets, config, models);
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
