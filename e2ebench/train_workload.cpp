// train_cohort: the streamed artifact build of `hdc_cli bundle --stream --ann
// --models ...`, driven stage by stage from a CSV that set-up wrote.
//
// Timed per build (train_s = p50_us): CsvStreamChunks prescan, streamed
// extractor fit, EncodingShardSource, Index::build_sharded, Hamming fit,
// fit_shards for Logistic Regression / Naive Bayes / Decision Tree,
// save_bundle_file and load_bundle_file. The stage times add up to the
// build time. Untimed after every build: the loaded bundle must answer the
// holdout rows exactly as the in-memory bundle did before saving, and must
// re-save to the same bytes.
//
// The data and shard layers are measured through two counting wrappers
// (CountingChunks around the CSV source, CountingShards around the encoding
// source), so no library code is instrumented.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/bundle.hpp"
#include "core/shard_source.hpp"
#include "data/chunked.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "ml/logistic.hpp"
#include "ml/tree.hpp"
#include "ml/zoo.hpp"

namespace e2e {
namespace {

using hdc::data::Dataset;

/// Rows in the training CSV (4096-row shards -> 2 shards, so every
/// multi-pass consumer re-encodes). Sized so one build stays a few seconds
/// at D = 10,000; see e2ebench/README.md.
constexpr std::size_t kTrainRows = 6000;
constexpr std::size_t kShardRows = 4096;
constexpr std::size_t kHoldoutRows = 1000;
/// Every Logistic Regression step and every Decision Tree level streams all
/// shards again, and each re-streamed shard is re-encoded. At the library
/// defaults (300 steps, unlimited depth) one build takes minutes, so both
/// are capped; the caps are part of the workload definition.
constexpr std::size_t kLogisticSteps = 4;
constexpr std::size_t kTreeDepth = 6;
/// Builds per untraced run (train_s is their median), even when one build
/// outlasts --seconds.
constexpr std::size_t kMinBuilds = 2;
constexpr std::size_t kTrainSetups = 5;

struct LayerClock {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Times every chunk() call into the data layer.
class CountingChunks final : public hdc::data::ChunkedDataset {
 public:
  CountingChunks(const hdc::data::ChunkedDataset& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  [[nodiscard]] std::size_t n_rows() const override { return inner_->n_rows(); }
  [[nodiscard]] const std::vector<hdc::data::ColumnSpec>& columns() const override {
    return inner_->columns();
  }
  [[nodiscard]] Dataset chunk(std::size_t begin, std::size_t end) const override {
    const Clock::time_point start = Clock::now();
    Dataset rows = inner_->chunk(begin, end);
    clock_->seconds += seconds_since(start);
    ++clock_->calls;
    return rows;
  }

 private:
  const hdc::data::ChunkedDataset* inner_;
  LayerClock* clock_;
};

/// Times every shard() call a consumer makes (its wait for data), and
/// separates the encode self time from the chunk reads inside it.
class CountingShards final : public hdc::ml::ShardSource {
 public:
  CountingShards(const hdc::ml::ShardSource& inner, const LayerClock& chunks)
      : inner_(&inner), chunks_(&chunks) {}
  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  [[nodiscard]] std::size_t num_shards() const override { return inner_->num_shards(); }
  [[nodiscard]] std::size_t shard_begin(std::size_t s) const override {
    return inner_->shard_begin(s);
  }
  [[nodiscard]] std::span<const int> labels() const override { return inner_->labels(); }
  [[nodiscard]] const hdc::hv::BitMatrix& shard(std::size_t s) const override {
    const LayerClock chunks_before = *chunks_;
    const Clock::time_point start = Clock::now();
    const hdc::hv::BitMatrix& bits = inner_->shard(s);
    const double waited = seconds_since(start);
    wait.seconds += waited;
    ++wait.calls;
    if (chunks_->calls != chunks_before.calls) {  // not the cached shard
      encode.seconds += waited - (chunks_->seconds - chunks_before.seconds);
      ++encode.calls;
    }
    return bits;
  }

  mutable LayerClock wait;    // every shard() call
  mutable LayerClock encode;  // re-encodes only, chunk reads excluded

 private:
  const hdc::ml::ShardSource* inner_;
  const LayerClock* chunks_;
};

struct FitModel {
  const char* layer;  // metric suffix
  std::unique_ptr<hdc::ml::Classifier> (*make)();
};

const FitModel kModels[] = {
    {"logistic",
     [] {
       hdc::ml::LogisticConfig config;
       config.max_iter = kLogisticSteps;
       return std::unique_ptr<hdc::ml::Classifier>(
           std::make_unique<hdc::ml::LogisticRegression>(config));
     }},
    {"naive_bayes", [] { return hdc::ml::make_model("Naive Bayes"); }},
    {"decision_tree",
     [] {
       hdc::ml::TreeConfig config;
       config.max_depth = kTreeDepth;
       return std::unique_ptr<hdc::ml::Classifier>(
           std::make_unique<hdc::ml::DecisionTree>(config));
     }},
};

/// One streamed build: its stage times and per-layer numbers.
struct Build {
  std::vector<std::pair<std::string, double>> stages;  // add up to `seconds`
  std::map<std::string, double> layers;
  double seconds = 0.0;
  hdc::core::ModelBundle bundle;  // in-memory, as saved
  hdc::core::ModelBundle loaded;  // reloaded from the file
  std::string file_bytes;
};

/// Fold per-chunk column ranges into the extractor, one chunk resident at a
/// time (the same pass hdc_cli runs for --stream).
hdc::core::HdcFeatureExtractor fit_streamed(const hdc::data::ChunkedDataset& chunks,
                                            const std::vector<hdc::data::ChunkRange>& plan) {
  std::vector<hdc::core::ColumnEncoding> columns;
  for (const hdc::data::ColumnSpec& spec : chunks.columns()) {
    columns.push_back({spec.name, spec.kind, 0.0, 0.0});
  }
  std::vector<std::size_t> present(columns.size(), 0);
  for (const hdc::data::ChunkRange& range : plan) {
    const Dataset chunk = chunks.chunk(range.begin, range.end);
    for (std::size_t j = 0; j < columns.size(); ++j) {
      if (columns[j].kind != hdc::data::ColumnKind::kContinuous) continue;
      const hdc::data::ColumnStats stats = chunk.column_stats(j);
      if (stats.present == 0) continue;
      columns[j].lo = present[j] == 0 ? stats.min : std::min(columns[j].lo, stats.min);
      columns[j].hi = present[j] == 0 ? stats.max : std::max(columns[j].hi, stats.max);
      present[j] += stats.present;
    }
  }
  hdc::core::HdcFeatureExtractor extractor;
  extractor.fit_from_columns(std::move(columns));
  return extractor;
}

Build build_once(const std::string& csv_path, const std::string& bundle_path) {
  Build build;
  LayerClock chunk_clock;
  Clock::time_point stage = Clock::now();
  // Closes the current stage; stages that own a per-layer metric report
  // their time under it too.
  const auto lap = [&](const std::string& name, bool layer_metric) {
    const double s = seconds_since(stage);
    build.stages.emplace_back(name, s);
    if (layer_metric) build.layers[name] = s;
    build.seconds += s;
    stage = Clock::now();
  };

  const hdc::data::CsvStreamChunks csv(csv_path);
  const CountingChunks chunks(csv, chunk_clock);
  const std::vector<hdc::data::ChunkRange> plan =
      hdc::data::make_shard_plan(chunks.n_rows(), kShardRows);
  lap("data.csv_prescan_s", true);

  hdc::core::HdcFeatureExtractor extractor = fit_streamed(chunks, plan);
  lap("extractor.fit_s", true);

  const hdc::core::EncodingShardSource encoding(chunks, extractor, kShardRows);
  const CountingShards source(encoding, chunk_clock);
  lap("shard_source_s", false);

  hdc::hv::ann::BuildStats ann_stats;
  hdc::hv::ann::Index index =
      hdc::hv::ann::Index::build_sharded(source, {}, nullptr, &ann_stats);
  lap("ann.build_s", true);
  build.layers["ann.build_bytes_peak"] = static_cast<double>(ann_stats.bytes_peak);
  build.layers["ann.index_bytes"] = static_cast<double>(ann_stats.index_bytes);

  {
    std::vector<hdc::hv::BitVector> vectors;
    vectors.reserve(chunks.n_rows());
    for (const hdc::data::ChunkRange& range : plan) {
      std::vector<hdc::hv::BitVector> encoded =
          extractor.transform(chunks.chunk(range.begin, range.end));
      std::move(encoded.begin(), encoded.end(), std::back_inserter(vectors));
    }
    hdc::core::HammingClassifier hamming;
    hamming.fit(std::move(vectors), {source.labels().begin(), source.labels().end()});
    hamming.attach_ann(std::move(index));
    build.bundle.hamming = std::move(hamming);
  }
  lap("hamming_fit_s", false);

  for (const FitModel& entry : kModels) {
    const LayerClock wait_before = source.wait;
    auto model = entry.make();
    model->fit_shards(source);
    build.bundle.models.push_back(std::move(model));
    lap(std::string("ml.fit_s.") + entry.layer, true);
    build.layers[std::string("ml.shard_passes.") + entry.layer] =
        static_cast<double>(source.wait.calls - wait_before.calls) /
        static_cast<double>(source.num_shards());
    build.layers[std::string("ml.shard_wait_s.") + entry.layer] =
        source.wait.seconds - wait_before.seconds;
  }
  build.bundle.extractor = std::move(extractor);

  hdc::core::save_bundle_file(bundle_path, build.bundle);
  lap("bundle.save_s", true);
  build.loaded = hdc::core::load_bundle_file(bundle_path);
  lap("bundle.load_s", true);

  std::ifstream in(bundle_path, std::ios::binary);
  build.file_bytes.assign(std::istreambuf_iterator<char>(in), {});
  build.layers["bundle.bytes"] = static_cast<double>(build.file_bytes.size());
  build.layers["data.chunk_s"] = chunk_clock.seconds;
  build.layers["data.chunk_calls"] = static_cast<double>(chunk_clock.calls);
  build.layers["extractor.shard_encode_s"] = source.encode.seconds;
  build.layers["extractor.shard_encodes"] = static_cast<double>(source.encode.calls);
  return build;
}

/// Holdout answers of every predictor in `bundle`: Hamming (through its
/// attached index) first, then the zoo models in bundle order.
std::vector<std::vector<int>> holdout_answers(const hdc::core::ModelBundle& bundle,
                                              const Dataset& holdout) {
  std::vector<std::vector<int>> answers(1);
  for (const hdc::hv::BitVector& v : bundle.extractor->transform(holdout)) {
    answers[0].push_back(bundle.hamming->predict(v));
  }
  const hdc::hv::BitMatrix bits = bundle.extractor->transform_bits(holdout);
  for (const auto& model : bundle.models) answers.push_back(model->predict_all_bits(bits));
  return answers;
}

/// Outcome of the checks after one build.
struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t matched = 0;
  double accuracy = 0.0;  // mean over predictors
};

Checked check_build(const Build& build, const Dataset& holdout,
                    const std::string& first_bytes, Report& report) {
  Checked checked;
  const auto before = holdout_answers(build.bundle, holdout);
  const auto after = holdout_answers(build.loaded, holdout);
  for (std::size_t p = 0; p < before.size(); ++p) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < holdout.n_rows(); ++i) {
      ++checked.attempted;
      checked.matched += before[p][i] == after[p][i] ? 1 : 0;
      correct += after[p][i] == holdout.label(i) ? 1 : 0;
    }
    checked.accuracy += static_cast<double>(correct) /
                        static_cast<double>(holdout.n_rows()) /
                        static_cast<double>(before.size());
  }
  if (checked.matched != checked.attempted) {
    report.errors.push_back(std::to_string(checked.attempted - checked.matched) +
                            " holdout answers changed across save/load");
  }
  std::ostringstream resaved;
  hdc::core::save_bundle(resaved, build.loaded);
  ++checked.attempted;
  if (resaved.str() == build.file_bytes && build.file_bytes == first_bytes) {
    ++checked.matched;
  } else {
    report.errors.push_back("reloaded bundle does not re-save byte-identically");
  }
  return checked;
}

}  // namespace

void run_train_cohort(const Options& options, Report& report) {
  const std::string csv_path = options.workdir + "/train_cohort.csv";
  const std::string bundle_path = options.workdir + "/train_cohort.bundle";
  const Dataset holdout =
      hdc::data::make_synthetic_cohort(kHoldoutRows, query_seed(options.seed));
  std::printf("# train_cohort: csv=%zu rows, shards of %zu rows, holdout=%zu rows, "
              "logistic steps=%zu, tree depth=%zu, clients=1\n",
              kTrainRows, kShardRows, kHoldoutRows, kLogisticSteps, kTreeDepth);

  // Set-up: generate the cohort, write the CSV, then read it back and encode
  // it once, so the first build pays neither a cold file read nor cold
  // encoder tables.
  std::vector<double> setups;
  PeakRss peak;
  for (std::size_t s = 0; s < setup_count(options, kTrainSetups); ++s) {
    const Clock::time_point start = Clock::now();
    hdc::data::write_csv_file(csv_path,
                              hdc::data::make_synthetic_cohort(kTrainRows, options.seed));
    const hdc::data::CsvStreamChunks csv(csv_path);
    const Dataset rows = csv.chunk(0, csv.n_rows());
    hdc::core::HdcFeatureExtractor extractor;
    extractor.fit(rows);
    (void)extractor.transform_bits(rows);
    setups.push_back(seconds_since(start));
    peak.setup_done();
  }
  peak.start_timed_phase();

  std::string first_bytes;
  // Runs builds for `seconds`, and at least `min_builds` (single client,
  // closed loop).
  const auto phase = [&](double seconds, std::size_t min_builds, const char* name) {
    std::vector<double> build_s;
    std::map<std::string, std::vector<double>> layers;
    std::vector<std::pair<std::string, double>> stages;  // of the last build
    ClientLog log;
    Checked last;
    const Clock::time_point start = Clock::now();
    while (build_s.size() < min_builds || seconds_since(start) < seconds) {
      ++log.attempted;
      try {
        const Build build = build_once(csv_path, bundle_path);
        if (first_bytes.empty()) first_bytes = build.file_bytes;
        build_s.push_back(build.seconds);
        stages = build.stages;
        for (const auto& [layer, value] : build.layers) layers[layer].push_back(value);
        last = check_build(build, holdout, first_bytes, report);
        log.attempted += last.attempted;
        log.failed += last.attempted - last.matched;
        log.matched += last.matched;
        log.rows += last.attempted;
      } catch (const std::exception& error) {
        ++log.failed;
        report.errors.push_back(std::string("build failed: ") + error.what());
        break;
      }
    }
    print_phase(name, log);
    std::printf("# %s, last build stages (s):", name);
    for (const auto& [stage, s] : stages) std::printf(" %s=%.4f", stage.c_str(), s);
    std::printf("\n");
    report.attempted += log.attempted;
    report.failed += log.failed;
    return std::tuple{build_s, layers, log, last};
  };

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  auto [build_s, layers, log, last] =
      phase(phase_s, options.trace ? 1 : kMinBuilds, "train_cohort builds");
  if (!options.trace) {
    report.set("setup_s", median(setups));
    report.set("p50_us", median(build_s) * 1e6);
    report.set("p99_us", quantile(build_s, 0.99) * 1e6);
    // Builds per second of build time (the checks between builds excluded).
    report.set("qps", static_cast<double>(build_s.size()) /
                          std::accumulate(build_s.begin(), build_s.end(), 0.0));
    report.set("rows_per_s", static_cast<double>(kTrainRows) / median(build_s));
    report.set("accuracy", last.accuracy);
    report.set("match_fraction",
               static_cast<double>(log.matched) / static_cast<double>(log.rows));
    report.set("success_fraction",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak.mb());
  } else {
    const ObsScope obs;
    auto [traced_s, traced_layers, traced_log, traced_last] =
        phase(phase_s, 1, "train_cohort builds (traced)");
    report.set("trace.overhead_fraction",
               overhead_fraction(median(build_s), median(traced_s)));
    for (const auto& [layer, values] : traced_layers) report.set(layer, median(values));
  }
  std::remove(csv_path.c_str());
  std::remove(bundle_path.c_str());
}

}  // namespace e2e
