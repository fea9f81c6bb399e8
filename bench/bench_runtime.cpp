// Batch-engine runtime bench: encode throughput and Hamming-LOOCV wall time
// at 1 / 2 / N threads over the synthetic Pima set (768 rows, d=10,000 by
// default), emitted as machine-readable JSON (BENCH_runtime.json) so future
// PRs have a perf trajectory to compare against.
//
// The run doubles as a determinism check: the LOOCV confusion matrix must be
// bit-identical at every thread count, or the bench exits non-zero.
//
// Flags: --dim N (default 10000), --seed S, --threads T (default 8; the
// thread set is {1, 2, T} plus hardware_threads() if distinct), --reps R
// (default 3, best-of), --out PATH (default BENCH_runtime.json), --fast.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "eval/cross_validation.hpp"
#include "hv/search.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using hdc::util::Timer;

struct ThreadSample {
  std::size_t threads = 0;
  double encode_seconds = 0.0;
  double loocv_seconds = 0.0;
  hdc::eval::BinaryMetrics metrics;
};

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

}  // namespace

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::size_t dim =
      static_cast<std::size_t>(cli.get_int("--dim", fast ? 2000 : 10000));
  const std::uint64_t seed = cli.get_uint("--seed", 2023);
  const std::size_t max_threads =
      static_cast<std::size_t>(cli.get_int("--threads", 8));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("--reps", fast ? 1 : 3));
  const std::string out_path = cli.get_string("--out", "BENCH_runtime.json");

  // The paper's Pima protocol: 768 rows, class-median imputed ("Pima M").
  hdc::data::PimaConfig pima_config;
  pima_config.seed = seed;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(pima_config));

  hdc::core::ExtractorConfig extractor_config;
  extractor_config.dimensions = dim;
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(ds);

  // Clamp the sweep to available hardware: oversubscribed "speedups" on a
  // 1-core box are scheduler noise, not engine scaling. speedup_valid in the
  // JSON records whether the speedup columns mean anything.
  const std::size_t hw_threads = hdc::parallel::hardware_threads();
  std::vector<std::size_t> thread_counts;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, max_threads, hw_threads}) {
    if (t >= 1 && t <= hw_threads) thread_counts.push_back(t);
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());
  const bool speedup_valid = hw_threads > 1 && thread_counts.size() > 1;
  // A one-point sweep is not a failed scaling run — it is a machine that
  // cannot measure scaling at all. Say so explicitly so downstream gates
  // can pass on single-core runners instead of reading "invalid".
  const char* speedup_skipped_reason =
      thread_counts.size() > 1 ? ""
      : hw_threads == 1        ? "hardware_threads==1"
                               : "single-point thread sweep";

  std::printf("# bench_runtime: rows=%zu dim=%zu seed=%llu reps=%zu hw_threads=%zu "
              "simd=%s\n",
              ds.n_rows(), dim, static_cast<unsigned long long>(seed), reps,
              hw_threads, hdc::simd::tier_name(hdc::simd::active_tier()));

  std::vector<ThreadSample> samples;
  for (const std::size_t t : thread_counts) {
    hdc::parallel::ThreadPool pool(t);
    ThreadSample sample;
    sample.threads = t;

    std::vector<hdc::hv::BitVector> vectors;
    sample.encode_seconds =
        best_of(reps, [&] { vectors = extractor.transform(ds, &pool); });
    sample.loocv_seconds = best_of(reps, [&] {
      sample.metrics = hdc::eval::hamming_loocv(vectors, ds.labels(), &pool).metrics;
    });
    std::printf("# threads=%zu encode=%.4fs (%.0f rows/s) loocv=%.4fs acc=%.6f f1=%.6f\n",
                t, sample.encode_seconds,
                static_cast<double>(ds.n_rows()) / sample.encode_seconds,
                sample.loocv_seconds, sample.metrics.accuracy, sample.metrics.f1);
    samples.push_back(sample);
  }

  // Instrumented pass (after the timed reps, so recording overhead never
  // touches the measured numbers): one encode + LOOCV with the obs registry
  // on, snapshotted into the JSON so the perf artefact is self-describing.
  hdc::obs::reset_metrics();
  hdc::obs::set_enabled(true);
  hdc::eval::BinaryMetrics obs_metrics;
  {
    hdc::parallel::ThreadPool pool(std::max<std::size_t>(2, max_threads));
    const std::vector<hdc::hv::BitVector> vectors = extractor.transform(ds, &pool);
    obs_metrics = hdc::eval::hamming_loocv(vectors, ds.labels(), &pool).metrics;
  }
  hdc::obs::set_enabled(false);
  const hdc::obs::MetricsSnapshot obs_snapshot = hdc::obs::snapshot();

  // Determinism gate: every thread count must produce the same confusion —
  // including the instrumented pass (recording must never perturb results).
  const auto& reference = samples.front().metrics.confusion;
  if (obs_metrics.confusion.tp != reference.tp ||
      obs_metrics.confusion.tn != reference.tn ||
      obs_metrics.confusion.fp != reference.fp ||
      obs_metrics.confusion.fn != reference.fn) {
    std::fprintf(stderr,
                 "FATAL: metrics differ between plain and obs-instrumented "
                 "runs — observability leaked into results\n");
    return 1;
  }
  for (const ThreadSample& s : samples) {
    if (s.metrics.confusion.tp != reference.tp ||
        s.metrics.confusion.tn != reference.tn ||
        s.metrics.confusion.fp != reference.fp ||
        s.metrics.confusion.fn != reference.fn) {
      std::fprintf(stderr,
                   "FATAL: metrics differ between 1 and %zu threads — the "
                   "batch engine lost its determinism guarantee\n",
                   s.threads);
      return 1;
    }
  }

  // Dispatch-tier invariance gate: every supported SIMD tier must reproduce
  // the reference confusion matrix bit-exactly (kernels may only change
  // throughput, never results).
  const hdc::simd::Tier initial_tier = hdc::simd::active_tier();
  std::vector<std::string> tiers_checked;
  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    hdc::simd::set_tier(tier);
    const std::vector<hdc::hv::BitVector> tier_vectors = extractor.transform(ds);
    const hdc::eval::BinaryMetrics tier_metrics =
        hdc::eval::hamming_loocv(tier_vectors, ds.labels()).metrics;
    if (tier_metrics.confusion.tp != reference.tp ||
        tier_metrics.confusion.tn != reference.tn ||
        tier_metrics.confusion.fp != reference.fp ||
        tier_metrics.confusion.fn != reference.fn) {
      std::fprintf(stderr,
                   "FATAL: metrics differ on SIMD tier '%s' — a kernel tier "
                   "is not bit-exact\n",
                   hdc::simd::tier_name(tier));
      return 1;
    }
    tiers_checked.emplace_back(hdc::simd::tier_name(tier));
  }
  hdc::simd::set_tier(initial_tier);

  const ThreadSample& base = samples.front();  // threads == 1
  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_runtime")
      .field("dataset", "pima_m_synthetic")
      .field("rows", ds.n_rows())
      .field("dimensions", dim)
      .field("seed", seed)
      .field("reps", reps)
      .field("hardware_threads", hw_threads)
      .field("simd_tier", hdc::simd::tier_name(initial_tier))
      .field("simd_tiers_checked", tiers_checked);
  json.key("metrics").object()
      .field("accuracy", base.metrics.accuracy)
      .field("f1", base.metrics.f1)
      .field("tp", reference.tp)
      .field("tn", reference.tn)
      .field("fp", reference.fp)
      .field("fn", reference.fn)
      .end();
  json.field("metrics_identical_across_threads", true)
      .field("metrics_identical_across_tiers", true)
      .field("speedup_valid", speedup_valid)
      .field("speedup_skipped_reason", speedup_skipped_reason);
  json.key("threads").array();
  for (const ThreadSample& s : samples) {
    json.object()
        .field("threads", s.threads)
        .field("encode_seconds", s.encode_seconds)
        .field("encode_rows_per_sec",
               static_cast<double>(ds.n_rows()) / s.encode_seconds)
        .field("loocv_seconds", s.loocv_seconds)
        .field("encode_speedup", base.encode_seconds / s.encode_seconds)
        .field("loocv_speedup", base.loocv_seconds / s.loocv_seconds)
        .end();
  }
  json.end();
  // Self-describing obs section: headline derived stats + the full registry
  // snapshot from the (untimed) instrumented pass.
  const auto* encode_hist = obs_snapshot.histogram("hv.encode.chunk_seconds");
  const auto* search_hist = obs_snapshot.histogram("hv.search.chunk_seconds");
  json.key("obs").object()
      .field("encode_rows", obs_snapshot.counter_value("hv.encode.rows"))
      .field("search_word_ops", obs_snapshot.counter_value("hv.search.word_ops"))
      .field("pool_tasks_completed",
             obs_snapshot.counter_value("pool.tasks_completed"))
      .field("pool_queue_depth_peak", obs_snapshot.gauge_max("pool.queue_depth"))
      .field("encode_stage_seconds", encode_hist != nullptr ? encode_hist->sum : 0.0)
      .field("search_stage_seconds", search_hist != nullptr ? search_hist->sum : 0.0)
      .raw_field("snapshot", hdc::obs::to_json(obs_snapshot))
      .end();
  hdc::core::ExperimentConfig manifest_config;
  manifest_config.extractor = extractor_config;
  manifest_config.seed = seed;
  json.raw_field("manifest", hdc::bench::manifest_json(ds, "pima_m_synthetic",
                                                       manifest_config))
      .end();
  return json.write(out_path) ? 0 : 1;
}
