// serve_paper and serve_cohort_ann: closed-loop clients against
// core::ServeEngine over a bundle that set-up built, saved and reloaded.
//
// Set-up (setup_s is the median over the run's set-ups): fit the bundle, save it,
// load one engine per predictor from the saved bytes, and warm every engine
// with one pass over the queries. Untimed after that: the batch-path
// reference answers, computed from each engine's own loaded bundle. The
// timed phase runs the closed loop and checks every answer against them.
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bundle.hpp"
#include "core/serve.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace e2e {
namespace {

using hdc::core::ModelBundle;
using hdc::core::ServeConfig;
using hdc::core::ServeEngine;
using hdc::data::Dataset;

/// Bundle save / load timings collected over every set-up of a run.
struct BundleTimes {
  std::vector<double> save_s;
  std::vector<double> load_s;
  std::size_t bytes = 0;

  std::string save(const ModelBundle& bundle) {
    const Clock::time_point start = Clock::now();
    std::ostringstream out;
    hdc::core::save_bundle(out, bundle);
    std::string saved = out.str();
    save_s.push_back(seconds_since(start));
    bytes = saved.size();
    return saved;
  }

  ModelBundle load(const std::string& saved) {
    const Clock::time_point start = Clock::now();
    std::istringstream in(saved);
    ModelBundle bundle = hdc::core::load_bundle(in);
    load_s.push_back(seconds_since(start));
    return bundle;
  }

  void report(Report& report) const {
    report.set("bundle.save_s", median(save_s));
    report.set("bundle.load_s", median(load_s));
    report.set("bundle.bytes", static_cast<double>(bytes));
  }
};

/// Untimed closed-loop warm-up before the timed phase (same clients, same
/// mix), so the first timed second does not pay for cold caches.
constexpr double kWarmupSeconds = 1.0;

/// One timed classify() call recorded into `log`.
void classify_once(ServeEngine& engine, const Dataset& queries, std::size_t row,
                   int reference, ClientLog& log) {
  ++log.attempted;
  const Clock::time_point start = Clock::now();
  int answer = 0;
  try {
    answer = engine.classify(queries.row(row));
  } catch (const std::exception&) {
    ++log.failed;
    return;
  }
  log.latency_us.push_back(seconds_since(start) * 1e6);
  ++log.rows;
  log.matched += answer == reference ? 1 : 0;
  log.correct += answer == queries.label(row) ? 1 : 0;
}

/// Tally a phase into the report; exact serving fails on any mismatch,
/// approximate serving only below `match_floor`.
void check_phase(const char* phase, const ClientLog& total, double match_floor,
                 Report& report) {
  print_phase(phase, total);
  report.attempted += total.attempted;
  report.failed += total.failed;
  const std::uint64_t mismatched = total.rows - total.matched;
  const double match =
      total.rows == 0 ? 0.0
                      : static_cast<double>(total.matched) / static_cast<double>(total.rows);
  if (total.rows == 0 || match < match_floor) {
    report.errors.push_back(std::string(phase) + ": " + std::to_string(mismatched) +
                            " of " + std::to_string(total.rows) +
                            " answers differ from the set-up reference");
    report.failed += mismatched;
  }
}

/// One closed-loop serve phase: `sync_clients` classify() clients, then
/// optionally one burst client (the last client index). Rates and quantiles
/// are per window; the report takes their medians.
struct Phase {
  std::vector<double> p50_us, p99_us, sync_per_s, burst_rows_per_s, rows_per_s, burst_ms;
  ClientLog sync, burst;  // answer tallies over the whole phase

  Phase(std::size_t sync_clients, bool burst_client, double seconds,
        const std::function<void(std::size_t, std::uint64_t, ClientLog&)>& op) {
    windowed_loop(sync_clients + (burst_client ? 1 : 0), seconds, op,
                  [&](std::vector<ClientLog>& logs, double wall) {
                    ClientLog window = merge(std::span(logs).first(sync_clients));
                    p50_us.push_back(quantile(window.latency_us, 0.50));
                    p99_us.push_back(quantile(window.latency_us, 0.99));
                    sync_per_s.push_back(static_cast<double>(window.rows) / wall);
                    add_counts(sync, window);
                    double rows = static_cast<double>(window.rows);
                    if (burst_client) {
                      ClientLog& batch = logs.back();
                      burst_ms.push_back(quantile(batch.latency_us, 0.50) / 1e3);
                      burst_rows_per_s.push_back(static_cast<double>(batch.rows) / wall);
                      add_counts(burst, batch);
                      rows += static_cast<double>(batch.rows);
                    }
                    rows_per_s.push_back(rows / wall);
                  });
  }

  /// Wall time per answered row, for the traced-run overhead.
  [[nodiscard]] double seconds_per_row() const { return 1.0 / median(rows_per_s); }

  /// End-to-end metrics shared by both serve workloads.
  void report(Report& report, double setup_s, const PeakRss& peak) const {
    ClientLog all = sync;
    add_counts(all, burst);
    const double rows = static_cast<double>(all.rows);
    report.set("setup_s", setup_s);
    report.set("p50_us", median(p50_us));
    report.set("p99_us", median(p99_us));
    report.set("qps", median(sync_per_s));
    report.set("rows_per_s", median(burst_ms.empty() ? sync_per_s : burst_rows_per_s));
    report.set("accuracy", static_cast<double>(all.correct) / rows);
    report.set("match_fraction", static_cast<double>(all.matched) / rows);
    report.set("success_fraction",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak.mb());
  }
};

// -- serve_paper ---------------------------------------------------------------

constexpr std::size_t kPaperClients = 3;
/// Engine slots: the bundle's three predictors.
const char* const kPaperEngines[] = {"hamming", "Logistic Regression",
                                     "Random Forest"};
/// Slot of a client's i-th request: hamming:LR:RF = 2:1:1.
constexpr std::size_t kPaperRotation[] = {0, 1, 0, 2};
constexpr std::size_t kPaperSetups = 3;
constexpr std::size_t kProbePasses = 10;

ModelBundle build_paper_bundle(const Dataset& train) {
  hdc::core::HdcFeatureExtractor extractor;
  extractor.fit(train);
  ModelBundle bundle;
  hdc::core::HammingClassifier hamming;
  hamming.fit(extractor.transform(train), train.labels());
  bundle.hamming = std::move(hamming);
  const hdc::hv::BitMatrix bits = extractor.transform_bits(train);
  for (std::size_t slot = 1; slot < std::size(kPaperEngines); ++slot) {
    auto model = hdc::ml::make_model(kPaperEngines[slot]);
    model->fit_bits(bits, train.labels());
    bundle.models.push_back(std::move(model));
  }
  bundle.extractor = std::move(extractor);
  return bundle;
}

/// Batch-path answers of `engine`'s own loaded bundle for every query.
std::vector<int> batch_reference(const ServeEngine& engine, const Dataset& queries) {
  const ModelBundle& bundle = engine.bundle();
  if (engine.model_name() == "hamming") {
    std::vector<int> answers;
    for (const hdc::hv::BitVector& v : bundle.extractor->transform(queries)) {
      answers.push_back(bundle.hamming->predict(v));
    }
    return answers;
  }
  return bundle.find_model(engine.model_name())
      ->predict_all_bits(bundle.extractor->transform_bits(queries));
}

/// Single-row packed matrix, the shape serve hands a zoo model.
hdc::hv::BitMatrix one_row(const hdc::hv::BitVector& v) {
  hdc::hv::PackedHVs packed(v.size(), 1);
  packed.set_row(0, v);
  return hdc::hv::BitMatrix::from_rows(std::move(packed));
}

}  // namespace

void run_serve_paper(const Options& options, Report& report) {
  hdc::data::PimaConfig train_config;
  train_config.seed = options.seed;
  const Dataset train = hdc::data::impute_class_median(hdc::data::make_pima(train_config));
  hdc::data::PimaConfig query_config;
  query_config.seed = query_seed(options.seed);
  const Dataset queries = hdc::data::make_pima(query_config);  // NaN cells kept
  const std::size_t n = queries.n_rows();
  std::printf("# serve_paper: train=%zu rows (Pima M), queries=%zu raw Pima rows "
              "(%zu with missing cells), clients=%zu\n",
              train.n_rows(), n, queries.rows_with_missing(), kPaperClients);

  std::vector<std::unique_ptr<ServeEngine>> engines;
  BundleTimes bundle_times;
  std::vector<double> setups;
  PeakRss peak;
  for (std::size_t s = 0; s < setup_count(options, kPaperSetups); ++s) {
    engines.clear();
    const Clock::time_point start = Clock::now();
    const std::string saved = bundle_times.save(build_paper_bundle(train));
    for (const char* model : kPaperEngines) {
      ServeConfig config;
      config.model = model;
      engines.push_back(
          std::make_unique<ServeEngine>(bundle_times.load(saved), config));
    }
    for (auto& engine : engines) {
      for (std::size_t row = 0; row < n; ++row) (void)engine->classify(queries.row(row));
    }
    setups.push_back(seconds_since(start));
    peak.setup_done();
  }
  peak.start_timed_phase();

  std::vector<std::vector<int>> reference;
  for (const auto& engine : engines) reference.push_back(batch_reference(*engine, queries));

  const auto op = [&](std::size_t client, std::uint64_t i, ClientLog& log) {
    const std::size_t slot = kPaperRotation[i % std::size(kPaperRotation)];
    const std::size_t row = (client * n / kPaperClients + i) % n;
    classify_once(*engines[slot], queries, row, reference[slot][row], log);
  };

  (void)Phase(kPaperClients, false, kWarmupSeconds, op);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase timed(kPaperClients, false, phase_s, op);
  check_phase("serve_paper classify", timed.sync, 1.0, report);
  if (!options.trace) {
    timed.report(report, median(setups), peak);
    return;
  }

  // Traced run: the same closed loop with obs on, then single-thread probes
  // of each layer the request crosses.
  const ObsScope obs;
  const Phase traced(kPaperClients, false, phase_s, op);
  check_phase("serve_paper classify (traced)", traced.sync, 1.0, report);
  report.set("trace.overhead_fraction",
             overhead_fraction(timed.seconds_per_row(), traced.seconds_per_row()));

  const ModelBundle& bundle = engines[0]->bundle();
  const hdc::core::HdcFeatureExtractor& extractor = *bundle.extractor;
  hdc::hv::RecordEncoder::Scratch scratch;
  std::vector<double> row_buffer;
  const std::vector<hdc::hv::BitVector> encoded = extractor.transform(queries);
  std::vector<hdc::hv::BitMatrix> rows;
  for (const hdc::hv::BitVector& v : encoded) rows.push_back(one_row(v));
  const hdc::ml::Classifier& logistic = *bundle.find_model(kPaperEngines[1]);
  const hdc::ml::Classifier& forest = *bundle.find_model(kPaperEngines[2]);
  const std::vector<double> p50 = probe_p50_us(
      kProbePasses * n,
      {[&](std::size_t i) { (void)extractor.encode_row(queries.row(i % n), scratch, row_buffer); },
       [&](std::size_t i) { (void)bundle.hamming->predict(encoded[i % n]); },
       [&](std::size_t i) { (void)logistic.predict_all_bits(rows[i % n]); },
       [&](std::size_t i) { (void)forest.predict_all_bits(rows[i % n]); },
       [&](std::size_t i) { (void)engines[0]->classify(queries.row(i % n)); }});
  report.set("extractor.encode_row_us", p50[0]);
  report.set("hamming.predict_us", p50[1]);
  report.set("ml.predict_us.logistic", p50[2]);
  report.set("ml.predict_us.random_forest", p50[3]);
  report.set("serve.overhead_us", p50[4] - p50[0] - p50[1]);
  bundle_times.report(report);
}

// -- serve_cohort_ann --------------------------------------------------------

namespace {

constexpr std::size_t kCohortRows = 100000;
constexpr std::size_t kSyncQueries = 512;
constexpr std::size_t kBurstRows = 64;
constexpr std::size_t kBursts = 8;  // distinct held-out bursts, cycled
constexpr std::size_t kSyncClients = 2;
constexpr std::size_t kBurstClient = kSyncClients;  // client index of the batcher
constexpr double kAnnMatchFloor = 0.999;
/// One set-up (fit, ANN build, save and reload of a 276 MB bundle) takes
/// ~12 s, so this workload sets up twice per run, not three times, to keep
/// the run within the benchmark's time budget.
constexpr std::size_t kCohortSetups = 2;

/// One burst: submit 64 rows, wait for every future. Latency is recorded
/// per burst (submit of the first row to the last answer), rows per row.
void burst_once(ServeEngine& engine, const Dataset& queries, std::size_t first,
                const std::vector<int>& reference, ClientLog& log) {
  const Clock::time_point start = Clock::now();
  std::vector<std::future<int>> futures;
  futures.reserve(kBurstRows);
  for (std::size_t r = 0; r < kBurstRows; ++r) {
    const std::span<const double> row = queries.row(first + r);
    futures.push_back(engine.submit({row.begin(), row.end()}));
  }
  for (std::size_t r = 0; r < kBurstRows; ++r) {
    ++log.attempted;
    try {
      const int answer = futures[r].get();
      ++log.rows;
      log.matched += answer == reference[first + r] ? 1 : 0;
      log.correct += answer == queries.label(first + r) ? 1 : 0;
    } catch (const std::exception&) {
      ++log.failed;
    }
  }
  log.latency_us.push_back(seconds_since(start) * 1e6);
}

}  // namespace

void run_serve_cohort_ann(const Options& options, Report& report) {
  const Dataset train = hdc::data::make_synthetic_cohort(kCohortRows, options.seed);
  const Dataset queries = hdc::data::make_synthetic_cohort(
      kSyncQueries + kBursts * kBurstRows, query_seed(options.seed));
  std::printf("# serve_cohort_ann: train=%zu cohort rows, sync queries=%zu, "
              "bursts=%zu x %zu rows, sync clients=%zu, burst clients=1\n",
              train.n_rows(), kSyncQueries, kBursts, kBurstRows, kSyncClients);

  // The drain worker: a benchmark-owned single-thread pool (declared before
  // the engine, so it outlives it).
  hdc::parallel::ThreadPool drain_pool(1);
  std::unique_ptr<ServeEngine> engine;
  BundleTimes bundle_times;
  std::vector<double> setups;
  std::vector<double> build_s;
  hdc::hv::ann::BuildStats build_stats;
  PeakRss peak;
  for (std::size_t s = 0; s < setup_count(options, kCohortSetups); ++s) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    std::string saved;
    {
      hdc::core::HdcFeatureExtractor extractor;
      extractor.fit(train);
      hdc::core::HammingClassifier hamming;
      hamming.fit(extractor.transform(train), train.labels());
      const Clock::time_point build_start = Clock::now();
      hamming.attach_ann(hdc::hv::ann::Index::build(hamming.packed_vectors(), {},
                                                    nullptr, &build_stats));
      build_s.push_back(seconds_since(build_start));
      ModelBundle bundle;
      bundle.extractor = std::move(extractor);
      bundle.hamming = std::move(hamming);
      saved = bundle_times.save(bundle);
    }
    ServeConfig config;
    config.model = "hamming";
    config.ann = true;
    config.pool = &drain_pool;
    engine = std::make_unique<ServeEngine>(bundle_times.load(saved), config);
    saved.clear();
    saved.shrink_to_fit();
    for (std::size_t row = 0; row < kSyncQueries; ++row) {
      (void)engine->classify(queries.row(row));
    }
    ClientLog warm;
    burst_once(*engine, queries, kSyncQueries, std::vector<int>(queries.n_rows(), 0),
               warm);
    setups.push_back(seconds_since(start));
    peak.setup_done();
  }
  peak.start_timed_phase();

  // Exact reference: the batch exact-search path over the loaded database.
  std::vector<int> reference;
  {
    const ModelBundle& bundle = engine->bundle();
    hdc::hv::ann::SearchOptions exact;
    exact.exact = true;
    const std::vector<hdc::hv::Neighbor> nearest = bundle.hamming->ann_index()->nearest(
        bundle.extractor->transform_packed(queries), bundle.hamming->packed_vectors(),
        exact);
    for (const hdc::hv::Neighbor& neighbor : nearest) {
      reference.push_back(bundle.hamming->training_labels()[neighbor.index]);
    }
  }

  const auto op = [&](std::size_t client, std::uint64_t i, ClientLog& log) {
    if (client == kBurstClient) {
      burst_once(*engine, queries, kSyncQueries + (i % kBursts) * kBurstRows,
                 reference, log);
    } else {
      const std::size_t row = (client * kSyncQueries / kSyncClients + i) % kSyncQueries;
      classify_once(*engine, queries, row, reference[row], log);
    }
  };
  static_assert(kBurstClient == kSyncClients, "Phase puts the burst client last");
  (void)Phase(kSyncClients, true, kWarmupSeconds, op);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase timed(kSyncClients, true, phase_s, op);
  check_phase("serve_cohort_ann classify", timed.sync, kAnnMatchFloor, report);
  check_phase("serve_cohort_ann burst", timed.burst, kAnnMatchFloor, report);
  if (!options.trace) {
    timed.report(report, median(setups), peak);
    return;
  }

  const ObsScope obs;
  const Phase traced(kSyncClients, true, phase_s, op);
  check_phase("serve_cohort_ann classify (traced)", traced.sync, kAnnMatchFloor, report);
  check_phase("serve_cohort_ann burst (traced)", traced.burst, kAnnMatchFloor, report);
  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  const double bursts = static_cast<double>(traced.burst.attempted / kBurstRows);
  report.set("trace.overhead_fraction",
             overhead_fraction(timed.seconds_per_row(), traced.seconds_per_row()));
  report.set("serve.burst_ms", median(traced.burst_ms));
  report.set("serve.batches_per_burst",
             static_cast<double>(snapshot.counter_value("serve.batches")) / bursts);
  report.set("serve.queue_depth_max",
             static_cast<double>(snapshot.gauge_max("serve.queue_depth")));

  const ModelBundle& bundle = engine->bundle();
  const hdc::core::HdcFeatureExtractor& extractor = *bundle.extractor;
  hdc::hv::RecordEncoder::Scratch scratch;
  std::vector<double> row_buffer;
  const std::vector<hdc::hv::BitVector> encoded = extractor.transform(queries);
  hdc::hv::ann::SearchStats stats;
  const std::vector<double> p50 = probe_p50_us(
      2 * kSyncQueries,
      {[&](std::size_t i) {
         (void)extractor.encode_row(queries.row(i % kSyncQueries), scratch, row_buffer);
       },
       [&](std::size_t i) {
         hdc::hv::ann::SearchStats one;  // predict() overwrites, so sum here
         (void)bundle.hamming->predict(encoded[i % kSyncQueries], &one);
         stats.queries += one.queries;
         stats.probes += one.probes;
         stats.candidates += one.candidates;
         stats.reranked += one.reranked;
         stats.word_ops += one.word_ops;
         stats.sketch_blocks += one.sketch_blocks;
       },
       [&](std::size_t i) { (void)engine->classify(queries.row(i % kSyncQueries)); }});
  const auto per_query = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(stats.queries);
  };
  report.set("extractor.encode_row_us", p50[0]);
  report.set("hamming.predict_us", p50[1]);
  report.set("serve.overhead_us", p50[2] - p50[0] - p50[1]);
  report.set("ann.probes_per_query", per_query(stats.probes));
  report.set("ann.candidates_per_query", per_query(stats.candidates));
  report.set("ann.reranked_per_query", per_query(stats.reranked));
  report.set("ann.word_ops_per_query", per_query(stats.word_ops));
  report.set("ann.sketch_blocks_per_query", per_query(stats.sketch_blocks));
  report.set("ann.rerank_ratio", static_cast<double>(stats.reranked) /
                                     static_cast<double>(stats.candidates));
  report.set("ann.build_s", median(build_s));
  report.set("ann.build_bytes_peak", static_cast<double>(build_stats.bytes_peak));
  report.set("ann.index_bytes", static_cast<double>(build_stats.index_bytes));
  bundle_times.report(report);
}

}  // namespace e2e
