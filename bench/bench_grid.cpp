// Experiment-grid bench: the paper's 2-dataset x 9-model x k-fold sweep run
// as a serial reference (one one-worker run_grid per model, so every fold is
// re-encoded once per model on one core) and as one run_grid over the whole
// zoo — each fold encoded once and shared by its model tasks on the grid's
// thread pool — at 1 / 2 / N threads. Emits BENCH_grid.json, a
// scheduling-perf trajectory for later changes to compare against.
//
// Two gates run inside the bench:
//   - determinism: every whole-zoo run's metrics must be bit-identical to
//     the serial reference, or the bench exits non-zero;
//   - speedup: serial / best-scheduled wall must reach 4x on hardware that
//     can show it (>= 4 cores, full fidelity). Machines that cannot measure
//     that say so in speedup_skipped_reason instead of failing.
//
// Flags (bench_common): --dim N, --seed S, --budget B, --kfold K, --fast;
// plus --threads T (default 8) and --reps R (default 1, best-of) and
// --out PATH (default BENCH_grid.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/grid.hpp"
#include "ml/zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using hdc::core::GridResult;
using hdc::util::Timer;

struct ThreadSample {
  std::size_t threads = 0;
  double seconds = 0.0;
  GridResult result;
};

/// Exact (bitwise) equality of every metric the grid reports.
bool identical(const GridResult& a, const GridResult& b) {
  if (a.datasets.size() != b.datasets.size()) return false;
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    const auto& da = a.datasets[d];
    const auto& db = b.datasets[d];
    if (da.models.size() != db.models.size()) return false;
    for (std::size_t m = 0; m < da.models.size(); ++m) {
      if (da.models[m].cv.fold_accuracy != db.models[m].cv.fold_accuracy ||
          da.models[m].cv.mean_accuracy != db.models[m].cv.mean_accuracy ||
          da.models[m].cv.stddev_accuracy != db.models[m].cv.stddev_accuracy) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const hdc::bench::BenchSetup setup = hdc::bench::make_setup(argc, argv);
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::size_t max_threads =
      static_cast<std::size_t>(cli.get_int("--threads", 8));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("--reps", 1));
  const std::string out_path = cli.get_string("--out", "BENCH_grid.json");

  // The grid proper: Pima M + Sylhet over the full zoo. The Sequential NN
  // rows are excluded so the bench times exactly the k-fold sweep.
  const std::vector<hdc::core::GridDatasetSpec> datasets = {
      {"pima_m", &setup.pima_m}, {"sylhet", &setup.sylhet}};
  hdc::core::GridConfig config;
  config.kfold = setup.kfold;
  config.experiment = setup.experiment;

  const std::size_t hw_threads = hdc::parallel::hardware_threads();
  std::vector<std::size_t> thread_counts;
  for (const std::size_t t :
       {std::size_t{1}, std::size_t{2}, max_threads, hw_threads}) {
    if (t >= 1 && t <= hw_threads) thread_counts.push_back(t);
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  std::printf("# bench_grid: datasets=2 models=9 kfold=%zu hw_threads=%zu\n",
              config.kfold, hw_threads);

  // Serial reference: one one-worker run_grid per model, so every fold is
  // re-encoded once per model on one core, as the pre-grid driver did.
  const std::vector<hdc::ml::ZooEntry> zoo = hdc::ml::paper_model_zoo();
  GridResult serial;
  double serial_seconds = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    GridResult run;
    run.datasets.resize(datasets.size());
    Timer timer;
    for (const hdc::ml::ZooEntry& entry : zoo) {
      hdc::core::GridConfig cell = config;
      cell.models = {entry.name};
      cell.threads = 1;
      GridResult one = hdc::core::run_grid(datasets, cell);
      for (std::size_t d = 0; d < datasets.size(); ++d) {
        run.datasets[d].models.push_back(std::move(one.datasets[d].models.front()));
      }
    }
    const double s = timer.seconds();
    serial_seconds = r == 0 ? s : std::min(serial_seconds, s);
    serial = std::move(run);
  }
  std::printf("# serial: %.3fs (%zu model fits, re-encode per model)\n",
              serial_seconds, datasets.size() * zoo.size() * config.kfold);

  std::vector<ThreadSample> samples;
  bool determinism_ok = true;
  for (const std::size_t t : thread_counts) {
    ThreadSample sample;
    sample.threads = t;
    config.threads = t;
    for (std::size_t r = 0; r < reps; ++r) {
      Timer timer;
      sample.result = hdc::core::run_grid(datasets, config);
      const double s = timer.seconds();
      sample.seconds = r == 0 ? s : std::min(sample.seconds, s);
    }
    if (!identical(serial, sample.result)) {
      determinism_ok = false;
      std::fprintf(stderr,
                   "FATAL: scheduled grid at %zu threads differs from the "
                   "serial reference — the scheduler lost determinism\n",
                   t);
    }
    const auto& st = sample.result.stats;
    std::printf(
        "# threads=%zu wall=%.3fs speedup=%.2fx dedup=%.1f "
        "(encode=%zu fit=%zu)\n",
        t, sample.seconds, serial_seconds / sample.seconds, st.dedup_ratio,
        st.encode_tasks, st.model_tasks);
    samples.push_back(std::move(sample));
  }
  if (!determinism_ok) return 1;

  double best_seconds = samples.front().seconds;
  for (const ThreadSample& s : samples) {
    best_seconds = std::min(best_seconds, s.seconds);
  }
  const double grid_speedup = serial_seconds / best_seconds;
  const bool speedup_ok = grid_speedup >= 4.0;
  // A smoke run or a small machine cannot demonstrate the 4x target; record
  // why instead of failing the gate (bench_runtime precedent).
  std::string skip_reason;
  if (!speedup_ok) {
    if (fast) {
      skip_reason = "fast-mode smoke run";
    } else if (hw_threads == 1) {
      skip_reason = "hardware_threads==1";
    } else if (hw_threads < 4) {
      skip_reason = "hardware_threads<4";
    } else {
      std::fprintf(stderr,
                   "FATAL: grid speedup %.2fx below the 4x gate on %zu "
                   "hardware threads\n",
                   grid_speedup, hw_threads);
      return 1;
    }
  }

  const auto& last = samples.back().result.stats;
  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_grid")
      .field("datasets",
             std::vector<std::string>{"pima_m_synthetic", "sylhet_synthetic"})
      .field("models", serial.datasets.front().models.size())
      .field("kfold", config.kfold)
      .field("dimensions", setup.experiment.extractor.dimensions)
      .field("seed", setup.experiment.seed)
      .field("model_budget", setup.experiment.model_budget)
      .field("reps", reps)
      .field("hardware_threads", hw_threads)
      .field("serial_seconds", serial_seconds)
      .field("determinism_ok", true)
      .field("dedup_ratio", last.dedup_ratio)
      .field("grid_speedup", grid_speedup)
      .field("speedup_ok", speedup_ok)
      .field("speedup_skipped_reason", skip_reason);
  json.key("threads").array();
  for (const ThreadSample& s : samples) {
    const auto& st = s.result.stats;
    json.object()
        .field("threads", s.threads)
        .field("seconds", s.seconds)
        .field("speedup_vs_serial", serial_seconds / s.seconds)
        .field("tasks_executed", st.tasks_executed)
        .field("cache_hits", st.cache_hits)
        .end();
  }
  json.end();
  // Provenance from the grid itself: run_grid's combined manifest covers
  // both datasets (mixed hash, summed rows) at the last sample's threads.
  json.raw_field("manifest", hdc::core::to_json(samples.back().result.manifest))
      .end();
  return json.write(out_path) ? 0 : 1;
}
