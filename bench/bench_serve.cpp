// Serve-path bench: single-record latency and coalesced throughput over a
// round-tripped model bundle, with a determinism gate. Emits BENCH_serve.json.
//
// Protocol:
//   1. Fit extractor + Hamming + two zoo models on synthetic Pima M, save
//      the bundle to a string and load it back (every serve measurement runs
//      on the persisted artifact, not the in-memory originals).
//   2. Determinism gate: for every bundled predictor, the serve fast path
//      (classify) and the coalescing queue (submit) must answer exactly the
//      batch-path predictions for every row, or the bench exits non-zero.
//   3. Latency: per-request wall times of classify() over --reps sweeps of
//      the dataset -> p50/p99 microseconds + QPS.
//   4. Throughput: all rows pushed through the coalescing queue at once.
//   5. Paired exact-vs-ann serve: the same bundle served with the ANN index
//      attached (--ann path), reporting ann p50/p99/qps and the fraction of
//      requests whose prediction matches the exact engine.
//
// Flags (bench_common): --dim N, --seed S, --fast; plus --reps R (default 3)
// and --out PATH (default BENCH_serve.json).
#include <algorithm>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/bundle.hpp"
#include "core/serve.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using hdc::util::Timer;

double percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const hdc::bench::BenchSetup setup = hdc::bench::make_setup(argc, argv);
  const hdc::util::Cli cli(argc, argv);
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("--reps", 3));
  const std::string out_path = cli.get_string("--out", "BENCH_serve.json");

  const hdc::data::Dataset& ds = setup.pima_m;
  const std::size_t n = ds.n_rows();

  // 1. Fit and round-trip the bundle.
  hdc::core::HdcFeatureExtractor extractor(setup.experiment.extractor);
  extractor.fit(ds);
  const hdc::hv::BitMatrix bits = extractor.transform_bits(ds);
  const std::vector<hdc::hv::BitVector> vectors = extractor.transform(ds);

  hdc::core::ModelBundle fitted;
  {
    hdc::core::HammingClassifier hamming;
    hamming.fit(vectors, ds.labels());
    fitted.hamming = std::move(hamming);
  }
  for (const char* name : {"Logistic Regression", "Random Forest"}) {
    auto model = hdc::ml::make_model(name, setup.experiment.model_budget);
    model->fit_bits(bits, ds.labels());
    fitted.models.push_back(std::move(model));
  }
  fitted.extractor = std::move(extractor);

  std::ostringstream saved;
  hdc::core::save_bundle(saved, fitted);
  std::istringstream stored(saved.str());
  hdc::core::ModelBundle bundle = hdc::core::load_bundle(stored);
  std::printf("# bundle: %zu bytes, sections=%zu models\n", saved.str().size(),
              bundle.models.size());

  // 2. Determinism gate: serve == batch path for every predictor.
  bool determinism_ok = true;
  std::vector<std::string> predictors = {"hamming"};
  for (const std::string& name : bundle.model_names()) predictors.push_back(name);
  for (const std::string& predictor : predictors) {
    // Batch-path reference from the *loaded* bundle.
    std::vector<int> reference;
    reference.reserve(n);
    if (predictor == "hamming") {
      for (const hdc::hv::BitVector& v : vectors) {
        reference.push_back(bundle.hamming->predict(v));
      }
    } else {
      reference = bundle.find_model(predictor)->predict_all_bits(bits);
    }

    for (const bool coalesce : {false, true}) {
      std::istringstream reload(saved.str());
      hdc::core::ServeConfig config;
      config.model = predictor;
      hdc::core::ServeEngine engine(hdc::core::load_bundle(reload), config);
      std::vector<int> served;
      served.reserve(n);
      if (coalesce) {
        std::vector<std::future<int>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::span<const double> row = ds.row(i);
          futures.push_back(engine.submit({row.begin(), row.end()}));
        }
        for (auto& f : futures) served.push_back(f.get());
      } else {
        for (std::size_t i = 0; i < n; ++i) served.push_back(engine.classify(ds.row(i)));
      }
      if (served != reference) {
        determinism_ok = false;
        std::fprintf(stderr,
                     "FATAL: %s serve path for '%s' differs from the batch "
                     "path — the serve layer lost determinism\n",
                     coalesce ? "coalesced" : "sync", predictor.c_str());
      }
    }
  }

  // 3. Single-request latency through the Hamming predictor (the paper's
  // deployed model): per-request timing over `reps` dataset sweeps. The
  // obs registry is on for the timed sweeps so the serve layer's own
  // windowed latency sketch (serve.latency_seconds — what a live /metrics
  // scrape reports) can be emitted next to the exact oracle percentiles.
  std::istringstream reload(saved.str());
  hdc::core::ServeEngine engine(hdc::core::load_bundle(reload), {});
  for (std::size_t i = 0; i < n; ++i) {
    (void)engine.classify(ds.row(i));  // warm the scratch pool + caches
  }
  hdc::obs::reset_metrics();
  hdc::obs::set_enabled(true);
  std::vector<double> latencies_us;
  latencies_us.reserve(n * reps);
  Timer sweep;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      Timer request;
      (void)engine.classify(ds.row(i));
      latencies_us.push_back(request.seconds() * 1e6);
    }
  }
  const double sync_seconds = sweep.seconds();
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50_us = percentile(latencies_us, 0.50);
  const double p90_us = percentile(latencies_us, 0.90);
  const double p99_us = percentile(latencies_us, 0.99);
  const double qps =
      static_cast<double>(latencies_us.size()) / std::max(sync_seconds, 1e-12);

  // 4. Coalesced throughput: every row in flight at once.
  Timer coalesced;
  {
    std::vector<std::future<int>> futures;
    futures.reserve(n * reps);
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> row = ds.row(i);
        futures.push_back(engine.submit({row.begin(), row.end()}));
      }
    }
    for (auto& f : futures) (void)f.get();
  }
  const double coalesced_seconds = coalesced.seconds();
  const double coalesced_qps = static_cast<double>(n * reps) /
                               std::max(coalesced_seconds, 1e-12);

  // The live-telemetry view of the same load: the windowed sketch the
  // /metrics endpoint serves must have seen every instrumented request.
  hdc::obs::set_enabled(false);
  const hdc::obs::MetricsSnapshot snap = hdc::obs::snapshot();
  const hdc::obs::WindowedSample* windowed =
      snap.windowed_sample("serve.latency_seconds");
  if (windowed == nullptr || windowed->total_count == 0 ||
      windowed->window_count == 0) {
    std::fprintf(stderr,
                 "FATAL: serve.latency_seconds windowed sketch is empty — the "
                 "serve path stopped recording latency telemetry\n");
    return 1;
  }
  // 5. Paired exact-vs-ann serve: the same bundle served with the ANN index
  // attached (ServeConfig::ann). Predictions are compared request-for-request
  // against the exact engine; with the default index parameters the golden
  // recall gate (bench_ann) makes disagreement an anomaly worth surfacing.
  double ann_p50_us = 0.0;
  double ann_p99_us = 0.0;
  double ann_qps = 0.0;
  double ann_match_fraction = 0.0;
  std::string ann_skipped_reason;
  if (!bundle.hamming.has_value()) {
    ann_skipped_reason = "bundle has no hamming predictor";
  } else {
    std::vector<int> exact_predictions;
    exact_predictions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      exact_predictions.push_back(engine.classify(ds.row(i)));
    }

    std::istringstream ann_reload(saved.str());
    hdc::core::ServeConfig ann_config;
    ann_config.ann = true;
    hdc::core::ServeEngine ann_engine(hdc::core::load_bundle(ann_reload),
                                      ann_config);
    for (std::size_t i = 0; i < n; ++i) {
      (void)ann_engine.classify(ds.row(i));  // warm
    }
    std::vector<double> ann_us;
    ann_us.reserve(n * reps);
    std::size_t matches = 0;
    Timer ann_sweep;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        Timer request;
        const int predicted = ann_engine.classify(ds.row(i));
        ann_us.push_back(request.seconds() * 1e6);
        if (predicted == exact_predictions[i]) ++matches;
      }
    }
    const double ann_seconds = ann_sweep.seconds();
    std::sort(ann_us.begin(), ann_us.end());
    ann_p50_us = percentile(ann_us, 0.50);
    ann_p99_us = percentile(ann_us, 0.99);
    ann_qps = static_cast<double>(ann_us.size()) / std::max(ann_seconds, 1e-12);
    ann_match_fraction =
        static_cast<double>(matches) / static_cast<double>(n * reps);
    std::printf("# ann: p50=%.1fus p99=%.1fus qps=%.0f match=%.4f\n",
                ann_p50_us, ann_p99_us, ann_qps, ann_match_fraction);
  }

  std::printf("# sync: p50=%.1fus p99=%.1fus qps=%.0f\n", p50_us, p99_us, qps);
  std::printf("# windowed sketch: p50=%.1fus p90=%.1fus p99=%.1fus over %llu "
              "requests\n",
              windowed->p50 * 1e6, windowed->p90 * 1e6, windowed->p99 * 1e6,
              static_cast<unsigned long long>(windowed->total_count));
  std::printf("# coalesced: qps=%.0f (%zu requests in %.3fs)\n", coalesced_qps,
              n * reps, coalesced_seconds);
  std::printf("# determinism: %s\n", determinism_ok ? "ok" : "FAILED");
  if (!determinism_ok) return 1;

  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_serve")
      .field("dataset", "pima_m_synthetic")
      .field("rows", n)
      .field("dimensions", setup.experiment.extractor.dimensions)
      .field("reps", reps)
      .field("predictors", predictors.size())
      .field("bundle_bytes", saved.str().size())
      .field("p50_us", p50_us)
      .field("p90_us", p90_us)
      .field("p99_us", p99_us)
      .field("qps", qps)
      .field("coalesced_qps", coalesced_qps)
      .field("windowed_p50_us", windowed->p50 * 1e6)
      .field("windowed_p90_us", windowed->p90 * 1e6)
      .field("windowed_p99_us", windowed->p99 * 1e6)
      .field("windowed_requests", windowed->total_count);
  // Bucket upper edges; the overflow bucket's edge is the string "+Inf".
  json.key("latency_bucket_bounds").array();
  for (const double bound : windowed->bounds) json.value(bound);
  json.value("+Inf").end();
  json.field("latency_bucket_counts", windowed->bucket_counts);
  if (ann_skipped_reason.empty()) {
    json.field("ann_p50_us", ann_p50_us)
        .field("ann_p99_us", ann_p99_us)
        .field("ann_qps", ann_qps)
        .field("ann_match_fraction", ann_match_fraction);
  } else {
    json.field("ann_skipped_reason", ann_skipped_reason);
  }
  json.field("determinism_ok", true)
      .raw_field("manifest", hdc::bench::manifest_json(ds, "pima_m_synthetic",
                                                       setup.experiment))
      .end();
  return json.write(out_path) ? 0 : 1;
}
