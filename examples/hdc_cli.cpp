// hdc_cli — command-line workflow over CSV files, the "no code" entry point:
//
//   hdc_cli describe data.csv                      # dataset summary
//   hdc_cli bundle data.csv model.bundle           # fit + save a model bundle
//   hdc_cli bundle data.csv model.bundle --stream --shard-rows N
//                                                  # same bundle, out-of-core:
//                                                  # CSV is read and encoded in
//                                                  # N-row shards, never fully
//                                                  # resident as dense doubles
//   hdc_cli train ...                              # alias of bundle
//   hdc_cli evaluate data.csv model.bundle         # accuracy report on a CSV
//   hdc_cli predict data.csv model.bundle          # per-row predictions
//   hdc_cli serve data.csv model.bundle            # serve rows from a bundle
//   hdc_cli experiment data.csv                    # Hamming LOOCV + model fit
//   hdc_cli grid a.csv [b.csv ...]                 # scheduled model-zoo CV grid
//
// Every model file is a checksummed core/bundle. `evaluate` and `predict`
// answer with its extractor + Hamming 1-NN sections and fail, naming the
// section, when either is missing. --label <column> selects the label column
// (default: last), --dim / --seed control the encoding.
//
// `grid` runs the paper's evaluation sweep (every zoo model under stratified
// k-fold CV, per dataset) on one thread pool, encoding each fold once for
// every model: --threads N sets the worker count (default: all cores),
// --kfold K, --models a,b,c restricts the zoo, --budget B scales boosted
// models. With --trace-out the Chrome trace shows the grid.encode /
// grid.fit spans.
//
// `bundle` (or `train`) fits the extractor + Hamming classifier and, with
// --models a,b,c / --with-nn, zoo models and the Sequential NN on the encoded
// hypervectors, then writes one checksummed bundle file (core/bundle).
// `serve` loads a bundle and classifies every row of the CSV ("-" = stdin)
// through core/serve — --model picks the predictor ("hamming", "nn", or a
// zoo name), --coalesce routes rows through the request-coalescing queue
// (identical predictions by contract), --max-batch caps a drain sweep; a
// final "# serve:" line reports the request/batch counters.
//
// Observability (any command): --metrics-out=FILE writes the obs metrics
// registry as JSON (with --metrics-interval MS it becomes a JSONL stream, one
// snapshot line per interval plus a final one); --trace-out=FILE writes a
// Chrome trace-event JSON (chrome://tracing / Perfetto) of the run's spans,
// including cross-thread flow arrows; --stacks-out=FILE writes the same
// spans folded into flamegraph collapsed-stack lines. `serve` additionally
// takes --metrics-port P to expose GET /metrics (Prometheus text) and
// /healthz on an embedded HTTP listener while it runs (P=0 picks an
// ephemeral port, logged at startup). All of it enables the corresponding
// recording; predictions are identical either way.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>

#include "core/bundle.hpp"
#include "core/experiment.hpp"
#include "core/extractor.hpp"
#include "core/grid.hpp"
#include "core/hamming_classifier.hpp"
#include "core/serve.hpp"
#include "core/shard_source.hpp"
#include "ml/zoo.hpp"
#include "nn/sequential.hpp"
#include "data/chunked.hpp"
#include "data/csv.hpp"
#include "data/describe.hpp"
#include "eval/metrics.hpp"
#include "core/manifest.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

hdc::data::Dataset load(const std::string& path, const hdc::util::Cli& cli) {
  hdc::data::CsvOptions options;
  options.label_column = cli.get_string("--label", "");
  if (path == "-") return hdc::data::read_csv(std::cin, options);
  return hdc::data::read_csv_file(path, options);
}

int cmd_describe(const hdc::data::Dataset& ds) {
  std::fputs(hdc::data::describe(ds).c_str(), stdout);
  return 0;
}

// Pass 1 of `bundle --stream`: fold per-chunk column stats into the
// extractor ranges, one chunk resident at a time. The folded ranges equal
// the whole-file ranges exactly (min/max are order-free), so the fitted
// extractor is identical to an in-memory fit() over the same rows.
std::optional<hdc::core::HdcFeatureExtractor> fit_extractor_streamed(
    const hdc::data::CsvStreamChunks& chunks,
    const std::vector<hdc::data::ChunkRange>& plan,
    const hdc::util::Cli& cli) {
  std::vector<hdc::core::ColumnEncoding> columns;
  for (const hdc::data::ColumnSpec& spec : chunks.columns()) {
    columns.push_back({spec.name, spec.kind, 0.0, 0.0});
  }
  std::vector<std::size_t> present(columns.size(), 0);
  for (const hdc::data::ChunkRange& range : plan) {
    const hdc::data::Dataset chunk = chunks.chunk(range.begin, range.end);
    for (std::size_t j = 0; j < columns.size(); ++j) {
      if (columns[j].kind != hdc::data::ColumnKind::kContinuous) continue;
      const hdc::data::ColumnStats stats = chunk.column_stats(j);
      if (stats.present == 0) continue;
      if (present[j] == 0) {
        columns[j].lo = stats.min;
        columns[j].hi = stats.max;
      } else {
        columns[j].lo = std::min(columns[j].lo, stats.min);
        columns[j].hi = std::max(columns[j].hi, stats.max);
      }
      present[j] += stats.present;
    }
  }
  for (std::size_t j = 0; j < columns.size(); ++j) {
    if (columns[j].kind == hdc::data::ColumnKind::kContinuous && present[j] == 0) {
      std::fprintf(stderr, "column '%s' has no data\n", columns[j].name.c_str());
      return std::nullopt;
    }
  }

  hdc::core::ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(cli.get_int("--dim", 10000));
  config.seed = cli.get_uint("--seed", 2023);
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit_from_columns(std::move(columns));
  return extractor;
}

// evaluate / predict answer from a bundle's extractor + Hamming sections.
hdc::core::ModelBundle load_hamming_bundle(const std::string& path) {
  hdc::core::ModelBundle bundle = hdc::core::load_bundle_file(path);
  if (!bundle.extractor) {
    throw std::runtime_error(path + ": bundle has no 'extractor' section");
  }
  if (!bundle.hamming) {
    throw std::runtime_error(path + ": bundle has no 'hamming' section");
  }
  return bundle;
}

int cmd_evaluate(const hdc::data::Dataset& ds, const std::string& model_path) {
  const hdc::core::ModelBundle m = load_hamming_bundle(model_path);
  std::vector<int> predictions;
  predictions.reserve(ds.n_rows());
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    predictions.push_back(m.hamming->predict(m.extractor->encode_row(ds.row(i))));
  }
  const hdc::eval::BinaryMetrics metrics =
      hdc::eval::compute_metrics(ds.labels(), predictions);
  std::printf("n=%zu  accuracy=%.2f%%  precision=%.3f  recall=%.3f  "
              "specificity=%.3f  f1=%.3f\n",
              ds.n_rows(), 100.0 * metrics.accuracy, metrics.precision,
              metrics.recall, metrics.specificity, metrics.f1);
  return 0;
}

int cmd_experiment(const hdc::data::Dataset& ds, const hdc::util::Cli& cli) {
  hdc::core::ExperimentConfig config;
  config.extractor.dimensions = static_cast<std::size_t>(cli.get_int("--dim", 10000));
  config.extractor.seed = cli.get_uint("--seed", 2023);
  // Default to a 2-worker pool so the pool instrumentation is exercised even
  // on single-core hosts; results are thread-count-invariant by contract.
  config.threads = static_cast<std::size_t>(cli.get_int("--threads", 2));

  // The paper's pure-HDC protocol: encode every row, leave-one-out 1-NN.
  const hdc::core::ExperimentResult loo =
      hdc::core::hamming_loo_observed(ds, config);
  std::printf("hamming_loo  n=%zu  accuracy=%.2f%%  precision=%.3f  recall=%.3f  "
              "f1=%.3f\n",
              ds.n_rows(), 100.0 * loo.metrics.accuracy, loo.metrics.precision,
              loo.metrics.recall, loo.metrics.f1);

  // A conventional-model stage so the trace shows the full
  // encode -> search -> fit pipeline (paper Table IV protocol).
  const std::string model_name = cli.get_string("--model", "Logistic Regression");
  const hdc::eval::BinaryMetrics holdout = hdc::core::holdout_metrics(
      ds, model_name, hdc::core::InputMode::kRawFeatures, 0.1, config);
  std::printf("holdout(%s)  accuracy=%.2f%%  f1=%.3f\n", model_name.c_str(),
              100.0 * holdout.accuracy, holdout.f1);
  return 0;
}

int cmd_grid(const std::vector<std::string>& csv_paths,
             const hdc::util::Cli& cli) {
  // Load every dataset up front; the file path doubles as the fold-cache
  // dataset id, so duplicate paths share encodings safely.
  std::vector<hdc::data::Dataset> loaded;
  loaded.reserve(csv_paths.size());
  for (const std::string& path : csv_paths) loaded.push_back(load(path, cli));
  std::vector<hdc::core::GridDatasetSpec> specs;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    specs.push_back({csv_paths[i], &loaded[i]});
  }

  hdc::core::GridConfig config;
  config.kfold = static_cast<std::size_t>(cli.get_int("--kfold", 10));
  config.threads = static_cast<std::size_t>(cli.get_int("--threads", 0));
  config.experiment.extractor.dimensions =
      static_cast<std::size_t>(cli.get_int("--dim", 10000));
  config.experiment.extractor.seed = cli.get_uint("--seed", 2023);
  config.experiment.model_budget = cli.get_double("--budget", 1.0);
  const std::string models = cli.get_string("--models", "");
  if (!models.empty()) {
    for (const std::string& name : hdc::util::split(models, ',')) {
      const auto trimmed = hdc::util::trim(name);
      if (!trimmed.empty()) config.models.emplace_back(trimmed);
    }
  }

  const hdc::core::GridResult result = hdc::core::run_grid(specs, config);

  hdc::util::Table table({"Dataset", "Model", "Mean acc", "Stddev"});
  for (const auto& ds : result.datasets) {
    for (const auto& cell : ds.models) {
      table.add_row({ds.dataset, cell.model,
                     hdc::util::format_percent(cell.cv.mean_accuracy, 2),
                     hdc::util::format_double(cell.cv.stddev_accuracy, 4)});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  const hdc::core::GridStats& st = result.stats;
  std::printf(
      "# grid: workers=%zu tasks=%llu (fit=%zu nn=%zu) folds encoded=%zu "
      "dedup=%.1fx\n",
      st.workers, static_cast<unsigned long long>(st.tasks_executed),
      st.model_tasks, st.nn_tasks, st.encode_tasks, st.dedup_ratio);
  return 0;
}

int cmd_predict(const hdc::data::Dataset& ds, const std::string& model_path) {
  const hdc::core::ModelBundle m = load_hamming_bundle(model_path);
  std::printf("row,prediction,score\n");
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    const hdc::hv::BitVector encoded = m.extractor->encode_row(ds.row(i));
    std::printf("%zu,%d,%.4f\n", i, m.hamming->predict(encoded),
                m.hamming->predict_score(encoded));
  }
  return 0;
}

int cmd_bundle(const hdc::data::Dataset& ds, const std::string& data_path,
               const std::string& out_path, const hdc::util::Cli& cli) {
  hdc::core::ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(cli.get_int("--dim", 10000));
  config.seed = cli.get_uint("--seed", 2023);
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);

  hdc::core::ModelBundle bundle;
  hdc::core::HammingClassifier hamming(
      hdc::core::HammingMode::kNearestNeighbor,
      static_cast<std::size_t>(cli.get_int("--k", 1)));
  hamming.fit(extractor.transform(ds), ds.labels());
  if (cli.has_flag("--ann")) {
    // Bake the ANN index into the bundle so serve start-up skips the build.
    hdc::hv::ann::Config ann_config;
    ann_config.cells = static_cast<std::size_t>(cli.get_int("--cells", 0));
    ann_config.nprobe = static_cast<std::size_t>(cli.get_int("--nprobe", 0));
    hamming.enable_ann(ann_config);
  }
  bundle.hamming = std::move(hamming);

  const std::string models = cli.get_string("--models", "");
  if (!models.empty()) {
    const hdc::hv::BitMatrix bits = extractor.transform_bits(ds);
    for (const std::string& name : hdc::util::split(models, ',')) {
      const auto trimmed = hdc::util::trim(name);
      if (trimmed.empty()) continue;
      auto model = hdc::ml::make_model(std::string(trimmed));
      model->fit_bits(bits, ds.labels());
      bundle.models.push_back(std::move(model));
    }
  }
  if (cli.has_flag("--with-nn")) {
    auto nn = std::make_unique<hdc::nn::Sequential>();
    nn->fit(extractor.transform_to_matrix(ds), ds.labels());
    bundle.nn = std::move(nn);
  }
  bundle.extractor = std::move(extractor);

  // Provenance rides inside the artifact: exactly which data, seeds, and
  // runtime configuration produced these weights.
  hdc::core::ExperimentConfig run_config;
  run_config.extractor = config;
  run_config.seed = config.seed;
  bundle.manifest = hdc::core::make_run_manifest(ds, data_path, run_config);

  hdc::core::save_bundle_file(out_path, bundle);
  std::printf("bundled %zu patients (%zu features) -> %s\n", ds.n_rows(),
              ds.n_cols(), out_path.c_str());
  return 0;
}

// Out-of-core bundle build: the CSV streams through core::EncodingShardSource
// in --shard-rows shards, so the dense cohort is never resident. With --ann
// the index is built by hv::ann::Index::build_sharded — shard-at-a-time,
// byte-identical to the in-memory build — and attached to the Hamming
// classifier under the usual database-fingerprint check. Zoo models (if any)
// train through their fit_shards merge paths. The written bundle is
// byte-identical to `bundle` on the same CSV, except that the provenance
// manifest (whose dataset hash needs the whole file resident) is omitted.
int cmd_bundle_stream(const std::string& csv_path, const std::string& out_path,
                      const hdc::util::Cli& cli) {
  if (csv_path == "-") {
    std::fprintf(stderr, "--stream needs a seekable CSV file, not stdin\n");
    return 2;
  }
  if (cli.has_flag("--with-nn")) {
    std::fprintf(stderr,
                 "--with-nn needs the dense matrix resident; drop --stream or "
                 "--with-nn\n");
    return 2;
  }
  // The streamed-build counters/gauges feed the trailing summary line;
  // recording never changes any produced byte (obs determinism contract).
  hdc::obs::set_enabled(true);
  hdc::data::CsvOptions options;
  options.label_column = cli.get_string("--label", "");
  const hdc::data::CsvStreamChunks chunks(csv_path, options);
  const std::size_t shard_rows =
      static_cast<std::size_t>(cli.get_int("--shard-rows", 4096));
  const std::vector<hdc::data::ChunkRange> plan =
      hdc::data::make_shard_plan(chunks.n_rows(), shard_rows);

  std::optional<hdc::core::HdcFeatureExtractor> fitted =
      fit_extractor_streamed(chunks, plan, cli);
  if (!fitted) return 1;
  hdc::core::HdcFeatureExtractor extractor = std::move(*fitted);

  const hdc::core::EncodingShardSource source(chunks, extractor, shard_rows);

  // With --ann the index builds first, while only one encoded shard is ever
  // resident; the classifier vectors accumulate afterwards.
  std::optional<hdc::hv::ann::Index> ann_index;
  hdc::hv::ann::BuildStats ann_stats;
  if (cli.has_flag("--ann")) {
    hdc::hv::ann::Config ann_config;
    ann_config.cells = static_cast<std::size_t>(cli.get_int("--cells", 0));
    ann_config.nprobe = static_cast<std::size_t>(cli.get_int("--nprobe", 0));
    ann_index = hdc::hv::ann::Index::build_sharded(source, ann_config, nullptr,
                                                   &ann_stats);
  }

  hdc::core::ModelBundle bundle;
  {
    // The serve path needs the packed patient vectors resident
    // (dimensions/8 bytes per row — the bundle's own payload).
    std::vector<hdc::hv::BitVector> vectors;
    vectors.reserve(chunks.n_rows());
    for (const hdc::data::ChunkRange& range : plan) {
      const hdc::data::Dataset chunk = chunks.chunk(range.begin, range.end);
      std::vector<hdc::hv::BitVector> encoded = extractor.transform(chunk);
      std::move(encoded.begin(), encoded.end(), std::back_inserter(vectors));
    }
    hdc::core::HammingClassifier hamming(
        hdc::core::HammingMode::kNearestNeighbor,
        static_cast<std::size_t>(cli.get_int("--k", 1)));
    hamming.fit(std::move(vectors),
                {source.labels().begin(), source.labels().end()});
    if (ann_index) hamming.attach_ann(std::move(*ann_index));
    bundle.hamming = std::move(hamming);
  }

  const std::string models = cli.get_string("--models", "");
  if (!models.empty()) {
    for (const std::string& name : hdc::util::split(models, ',')) {
      const auto trimmed = hdc::util::trim(name);
      if (trimmed.empty()) continue;
      auto model = hdc::ml::make_model(std::string(trimmed));
      model->fit_shards(source);
      bundle.models.push_back(std::move(model));
    }
  }
  bundle.extractor = std::move(extractor);
  hdc::core::save_bundle_file(out_path, bundle);

  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  std::printf(
      "streamed %zu patients (%zu features) in %zu shards of <= %zu rows -> "
      "%s\n",
      chunks.n_rows(), chunks.n_cols(), plan.size(),
      shard_rows == 0 ? chunks.n_rows() : shard_rows, out_path.c_str());
  if (cli.has_flag("--ann")) {
    std::printf(
        "# ann: cells=%zu build_bytes_peak=%lld (shard_max=%llu index=%llu) "
        "sketch_blocks=%llu\n",
        bundle.hamming->ann_index()->cells(),
        static_cast<long long>(snapshot.gauge_max("hv.ann.build_bytes_peak")),
        static_cast<unsigned long long>(ann_stats.shard_bytes_max),
        static_cast<unsigned long long>(ann_stats.index_bytes),
        static_cast<unsigned long long>(
            snapshot.counter_value("hv.ann.sketch_blocks")));
  }
  return 0;
}

int cmd_serve(const hdc::data::Dataset& ds, const std::string& bundle_path,
              const hdc::util::Cli& cli) {
  // Serve counters feed the trailing summary line; recording never changes
  // predictions (obs determinism contract).
  hdc::obs::set_enabled(true);
  hdc::core::ServeConfig config;
  config.model = cli.get_string("--model", "");
  config.max_batch = static_cast<std::size_t>(cli.get_int("--max-batch", 64));
  config.ann = cli.has_flag("--ann");
  config.nprobe = static_cast<std::size_t>(cli.get_int("--nprobe", 0));
  hdc::core::ServeEngine engine(hdc::core::load_bundle_file(bundle_path),
                                config);

  // --metrics-port P: live Prometheus endpoint for the duration of the run
  // (P=0 = ephemeral; the bound port is logged at startup).
  std::optional<hdc::obs::MetricsServer> metrics_server;
  const int metrics_port = cli.get_int("--metrics-port", -1);
  if (metrics_port >= 0) {
    hdc::obs::MetricsServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(metrics_port);
    metrics_server.emplace(server_options);
    if (!metrics_server->ok()) {
      std::fprintf(stderr, "warning: metrics server failed: %s\n",
                   metrics_server->error().c_str());
      metrics_server.reset();
    }
  }

  std::printf("row,prediction\n");
  if (cli.has_flag("--coalesce")) {
    std::vector<std::future<int>> results;
    results.reserve(ds.n_rows());
    for (std::size_t i = 0; i < ds.n_rows(); ++i) {
      const std::span<const double> row = ds.row(i);
      results.push_back(engine.submit({row.begin(), row.end()}));
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("%zu,%d\n", i, results[i].get());
    }
  } else {
    for (std::size_t i = 0; i < ds.n_rows(); ++i) {
      std::printf("%zu,%d\n", i, engine.classify(ds.row(i)));
    }
  }
  engine.shutdown();

  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  std::printf("# serve: model=%s requests=%llu batches=%llu max_queue=%lld\n",
              engine.model_name().c_str(),
              static_cast<unsigned long long>(engine.requests_served()),
              static_cast<unsigned long long>(
                  snapshot.counter_value("serve.batches")),
              static_cast<long long>(snapshot.gauge_max("serve.queue_depth")));
  if (config.ann) {
    std::printf("# serve.ann: probes=%llu candidates=%llu\n",
                static_cast<unsigned long long>(
                    snapshot.counter_value("serve.ann.probes")),
                static_cast<unsigned long long>(
                    snapshot.counter_value("serve.ann.candidates")));
  }
  return 0;
}

}  // namespace

int run_command(const hdc::util::Cli& cli) {
  const auto& args = cli.positional();
  const std::string& command = args[0];
  if (command == "grid") {
    // grid takes one-or-more CSVs, not the single-dataset + model shape.
    return cmd_grid({args.begin() + 1, args.end()}, cli);
  }
  if ((command == "train" || command == "bundle") && cli.has_flag("--stream")) {
    // Dispatch before load(): the whole point of --stream is that the CSV
    // is never materialized as one Dataset.
    if (args.size() < 3) {
      std::fprintf(stderr, "%s needs an output path\n", command.c_str());
      return 2;
    }
    return cmd_bundle_stream(args[1], args[2], cli);
  }
  const hdc::data::Dataset ds = load(args[1], cli);
  if (command == "describe") return cmd_describe(ds);
  if (command == "experiment") return cmd_experiment(ds, cli);
  if (args.size() < 3) {
    std::fprintf(stderr, "%s needs a model path\n", command.c_str());
    return 2;
  }
  if (command == "train" || command == "bundle") {
    return cmd_bundle(ds, args[1], args[2], cli);
  }
  if (command == "evaluate") return cmd_evaluate(ds, args[2]);
  if (command == "predict") return cmd_predict(ds, args[2]);
  if (command == "serve") return cmd_serve(ds, args[2], cli);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

/// Flush --metrics-out / --trace-out / --stacks-out files after the command
/// ran. metrics_out is skipped when a JSONL writer already owns that path.
void flush_observability(const std::string& metrics_out,
                         const std::string& trace_out,
                         const std::string& stacks_out) {
  if (!metrics_out.empty() && !hdc::obs::write_metrics_json(metrics_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (hdc::obs::write_chrome_trace(trace_out)) {
      hdc::util::log_fields(
          hdc::util::LogLevel::kInfo, "obs: trace flushed",
          {{"path", trace_out},
           {"events", std::to_string(hdc::obs::trace_event_count())},
           {"dropped", std::to_string(hdc::obs::trace_dropped_count())}});
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_out.c_str());
    }
  }
  if (!stacks_out.empty() && !hdc::obs::write_collapsed_stacks(stacks_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", stacks_out.c_str());
  }
}

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  const auto& args = cli.positional();
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: hdc_cli <describe|evaluate|predict|experiment> "
                 "<data.csv> [model.bundle] [--label COL] [--dim N] [--seed S] "
                 "[--model NAME] [--threads T]\n"
                 "       hdc_cli <bundle|train> <data.csv> <out.bundle> [--models "
                 "a,b,c] [--with-nn] [--dim N] [--seed S] [--k K] [--ann "
                 "[--cells C] [--nprobe P]]\n"
                 "       hdc_cli <bundle|train> <data.csv> <out.bundle> --stream "
                 "[--shard-rows N] [--ann [--cells C] [--nprobe P]] [--models "
                 "a,b,c] [--dim N] [--seed S] [--k K]\n"
                 "       hdc_cli serve <data.csv|-> <model.bundle> [--model "
                 "NAME] [--coalesce] [--max-batch N] [--metrics-port P] "
                 "[--ann [--nprobe P]]\n"
                 "       hdc_cli grid <data.csv> [more.csv ...] [--kfold K] "
                 "[--models a,b,c] [--threads N] [--budget B] "
                 "[--dim N] [--seed S]\n"
                 "observability (any command): [--metrics-out FILE] "
                 "[--metrics-interval MS] [--trace-out FILE] [--stacks-out "
                 "FILE]\n");
    return 2;
  }
  const std::string metrics_out = cli.get_string("--metrics-out", "");
  const std::string trace_out = cli.get_string("--trace-out", "");
  const std::string stacks_out = cli.get_string("--stacks-out", "");
  const int metrics_interval_ms = cli.get_int("--metrics-interval", 0);
  if (!metrics_out.empty()) hdc::obs::set_enabled(true);
  if (!trace_out.empty() || !stacks_out.empty()) {
    hdc::obs::set_trace_enabled(true);
  }
  // --metrics-interval turns --metrics-out into a periodic JSONL stream for
  // headless runs; the writer owns the file, so the one-shot flush is skipped.
  std::optional<hdc::obs::SnapshotJsonlWriter> jsonl;
  if (metrics_interval_ms > 0 && !metrics_out.empty()) {
    jsonl.emplace(metrics_out, std::chrono::milliseconds(metrics_interval_ms));
  }
  try {
    const int status = run_command(cli);
    if (jsonl) {
      jsonl->stop();
    }
    flush_observability(jsonl ? "" : metrics_out, trace_out, stacks_out);
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
