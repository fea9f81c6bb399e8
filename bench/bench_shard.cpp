// Sharded-training bench: out-of-core streaming encode + shard-mergeable
// model fits at synthetic-cohort scale. Emits BENCH_shard.json.
//
// Protocol:
//   1. Identity gate: encode a 100k-row cohort (reduced under --fast)
//      through transform_bits_chunked at shard counts {1, 4, 8}. The three
//      sharded encodes must agree fingerprint-for-fingerprint, and every
//      model of the paper's zoo (plus Naive Bayes) fitted through
//      fit_shards must produce byte-identical save_state() and identical
//      held-out predictions at every shard count. Any mismatch exits
//      non-zero — this is the ROADMAP's 1-shard vs N-shard bit-identity
//      gate.
//   2. Streaming gate: a 1M-row cohort (reduced under --fast) trained
//      through core::EncodingShardSource, which encodes one shard at a
//      time from a chunk source that synthesizes rows on demand. The
//      measured peak resident footprint (dense chunk + packed shard) must
//      stay within the byte budget implied by --shard-rows, and the bench
//      reports single-pass training throughput in rows/s.
//   3. Speedup: streamed vs fully-materialized wall time for the same fit,
//      reported only on multi-core hosts; single-core boxes emit
//      speedup_skipped_reason instead (the throughput number is still
//      measured).
//
// Model iteration counts here are bench-owned reductions: the gate is
// equality across shard counts, not accuracy, so cutting rounds/iters only
// shrinks wall time, never the strength of the identity check.
//
// Flags (bench_common): --dim N, --seed S, --fast; plus --shard-rows N
// (streaming shard size, default 65536, fast 4096), --reps R (accepted for
// smoke-harness compatibility; unused) and --out PATH (default
// BENCH_shard.json).
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "core/shard_source.hpp"
#include "core/manifest.hpp"
#include "data/chunked.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/sharded_bits.hpp"
#include "ml/forest.hpp"
#include "ml/hist_gbdt.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/ordered_gbdt.hpp"
#include "ml/gbdt.hpp"
#include "ml/sgd.hpp"
#include "ml/sharded.hpp"
#include "ml/svm.hpp"
#include "ml/tree.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using hdc::util::Timer;

std::string state_of(const hdc::ml::Classifier& model) {
  std::ostringstream out;
  model.save_state(out);
  return out.str();
}

struct ModelSpec {
  std::string name;
  std::function<std::unique_ptr<hdc::ml::Classifier>()> make;
};

/// The nine zoo models plus Naive Bayes, with bench-owned reduced
/// iteration counts (see the file comment).
std::vector<ModelSpec> identity_zoo() {
  using namespace hdc::ml;
  std::vector<ModelSpec> zoo;
  zoo.push_back({"Random Forest", [] {
    ForestConfig config;
    config.n_trees = 10;
    config.tree.max_depth = 8;
    return std::make_unique<RandomForest>(config);
  }});
  zoo.push_back({"KNN", [] { return std::make_unique<KnnClassifier>(); }});
  zoo.push_back({"Decision Tree", [] {
    TreeConfig config;
    config.max_depth = 6;
    return std::make_unique<DecisionTree>(config);
  }});
  zoo.push_back({"XGBoost", [] {
    GbdtConfig config;
    config.n_rounds = 10;
    config.max_depth = 4;
    return std::make_unique<GbdtClassifier>(config);
  }});
  zoo.push_back({"CatBoost", [] {
    OrderedGbdtConfig config;
    config.n_rounds = 10;
    config.depth = 4;
    return std::make_unique<OrderedGbdtClassifier>(config);
  }});
  zoo.push_back({"SGD", [] {
    SgdConfig config;
    config.epochs = 3;
    return std::make_unique<SgdClassifier>(config);
  }});
  zoo.push_back({"Logistic Regression", [] {
    LogisticConfig config;
    config.max_iter = 30;
    return std::make_unique<LogisticRegression>(config);
  }});
  zoo.push_back({"SVC", [] { return std::make_unique<SvcClassifier>(); }});
  zoo.push_back({"LGBM", [] {
    HistGbdtConfig config;
    config.n_rounds = 10;
    config.num_leaves = 8;
    return std::make_unique<HistGbdtClassifier>(config);
  }});
  zoo.push_back({"Naive Bayes",
                 [] { return std::make_unique<NaiveBayesClassifier>(); }});
  return zoo;
}

struct IdentityResult {
  std::size_t rows = 0;
  std::size_t models_checked = 0;
  bool fingerprints_ok = false;
  bool identity_ok = false;
  double seconds = 0.0;
};

IdentityResult run_identity(std::size_t rows, std::size_t n_test,
                            const hdc::core::ExtractorConfig& config,
                            std::uint64_t seed,
                            const std::vector<std::size_t>& shard_counts) {
  IdentityResult result;
  result.rows = rows;
  Timer total;

  // Train and held-out rows come from disjoint ranges of one deterministic
  // cohort stream (same device as bench_ann).
  const hdc::data::Dataset cohort =
      hdc::data::make_synthetic_cohort(rows + n_test, seed);
  std::vector<std::size_t> train_idx(rows);
  std::vector<std::size_t> test_idx(n_test);
  for (std::size_t i = 0; i < rows; ++i) train_idx[i] = i;
  for (std::size_t i = 0; i < n_test; ++i) test_idx[i] = rows + i;
  const hdc::data::Dataset train_ds = cohort.subset(train_idx);
  const hdc::data::Dataset test_ds = cohort.subset(test_idx);

  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(train_ds);
  const hdc::hv::BitMatrix test_bits = extractor.transform_bits(test_ds);

  // One sharded encode per shard count; the fingerprints must agree (the
  // chunking-invariance half of the gate).
  std::vector<hdc::hv::ShardedBitMatrix> sharded;
  sharded.reserve(shard_counts.size());
  for (const std::size_t count : shard_counts) {
    const std::size_t shard_rows = (rows + count - 1) / count;
    sharded.push_back(extractor.transform_bits_chunked(train_ds, shard_rows));
  }
  result.fingerprints_ok = true;
  for (const hdc::hv::ShardedBitMatrix& bits : sharded) {
    if (bits.fingerprint() != sharded.front().fingerprint()) {
      result.fingerprints_ok = false;
      std::fprintf(stderr, "FATAL: sharded encode fingerprints diverge\n");
    }
  }

  result.identity_ok = true;
  for (const ModelSpec& spec : identity_zoo()) {
    std::string base_state;
    std::vector<int> base_pred;
    bool model_ok = true;
    for (std::size_t v = 0; v < sharded.size(); ++v) {
      const std::unique_ptr<hdc::ml::Classifier> model = spec.make();
      const hdc::ml::MaterializedShardSource src(sharded[v], train_ds.labels());
      model->fit_shards(src);
      std::string state = state_of(*model);
      std::vector<int> pred = model->predict_all_bits(test_bits);
      if (v == 0) {
        base_state = std::move(state);
        base_pred = std::move(pred);
      } else if (state != base_state || pred != base_pred) {
        result.identity_ok = false;
        model_ok = false;
        std::fprintf(stderr,
                     "FATAL: %s differs between %zu and %zu shards (%s)\n",
                     spec.name.c_str(), sharded.front().num_shards(),
                     sharded[v].num_shards(),
                     state != base_state ? "state" : "predictions");
      }
    }
    ++result.models_checked;
    std::printf("# identity: %-19s shards={1,4,8} %s\n", spec.name.c_str(),
                model_ok ? "ok" : "FAILED");
  }
  result.seconds = total.seconds();
  return result;
}

struct StreamResult {
  std::size_t rows = 0;
  std::size_t shard_rows = 0;
  std::size_t num_shards = 0;
  std::size_t peak_resident_bytes = 0;
  std::size_t resident_budget_bytes = 0;
  bool peak_within_budget = false;
  double fit_seconds = 0.0;       // single-pass Naive Bayes fit (encode-bound)
  double throughput_rows_per_s = 0.0;
  double speedup_stream_vs_inmem = 0.0;  // 0 = not measured
};

/// Byte budget for one resident shard of `shard_rows` rows: the dense chunk
/// feeding the encoder plus the packed shard it produces — the same
/// accounting EncodingShardSource measures.
std::size_t shard_budget_bytes(std::size_t shard_rows, std::size_t cols,
                               std::size_t dim) {
  const std::size_t words_per_column = (shard_rows + 63) / 64;
  const std::size_t words_per_row = (dim + 63) / 64;
  const std::size_t packed =
      8 * (words_per_column * dim + shard_rows * words_per_row +
           words_per_column);
  const std::size_t chunk = shard_rows * (cols * 8 + 4);
  return packed + chunk;
}

StreamResult run_stream(std::size_t rows, std::size_t shard_rows,
                        hdc::core::ExtractorConfig config, std::uint64_t seed,
                        bool measure_speedup) {
  StreamResult result;
  result.rows = rows;
  result.shard_rows = shard_rows;

  // Rows are synthesized on demand: no dataset ever exists in full.
  const hdc::data::SyntheticCohortChunks chunks(rows, seed);
  result.resident_budget_bytes =
      shard_budget_bytes(shard_rows, chunks.n_cols(), config.dimensions);

  // Column ranges from a materialized prefix; the identity contract is not
  // at stake here (the cohort generator's ranges are stationary), only the
  // out-of-core footprint and throughput are.
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(chunks.chunk(0, std::min<std::size_t>(rows, 8192)));

  const hdc::core::EncodingShardSource src(chunks, extractor, shard_rows);
  result.num_shards = src.num_shards();

  {
    hdc::ml::NaiveBayesClassifier nb;
    hdc::ml::Classifier& model = nb;
    Timer t;
    model.fit_shards(src);
    result.fit_seconds = t.seconds();
  }
  {
    hdc::ml::SgdConfig sgd_config;
    sgd_config.epochs = 1;
    hdc::ml::SgdClassifier sgd(sgd_config);
    hdc::ml::Classifier& model = sgd;
    model.fit_shards(src);
  }
  {
    hdc::ml::LogisticConfig logistic_config;
    logistic_config.max_iter = 2;
    hdc::ml::LogisticRegression logistic(logistic_config);
    hdc::ml::Classifier& model = logistic;
    model.fit_shards(src);
  }

  result.peak_resident_bytes = src.peak_resident_bytes();
  result.peak_within_budget =
      result.peak_resident_bytes <= result.resident_budget_bytes;
  result.throughput_rows_per_s =
      result.fit_seconds > 0.0
          ? static_cast<double>(rows) / result.fit_seconds
          : 0.0;

  if (measure_speedup) {
    // Reference: the same Naive Bayes fit with everything materialized.
    const hdc::data::Dataset full = chunks.chunk(0, rows);
    const hdc::hv::BitMatrix bits = extractor.transform_bits(full);
    hdc::ml::NaiveBayesClassifier nb;
    Timer t;
    nb.fit_bits(bits, full.labels());
    const double inmem = t.seconds() + 0.0;  // encode excluded: lower bound
    result.speedup_stream_vs_inmem =
        result.fit_seconds > 0.0 ? inmem / result.fit_seconds : 0.0;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const hdc::bench::BenchSetup setup = hdc::bench::make_setup(argc, argv);
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::string out_path = cli.get_string("--out", "BENCH_shard.json");

  // Sharded fits count their histogram merges; gauges record the footprint.
  hdc::obs::set_enabled(true);

  const std::size_t rows_identity = fast ? 2000 : 100000;
  const std::size_t n_test = fast ? 400 : 1000;
  const std::size_t rows_stream = fast ? 20000 : 1000000;
  const std::size_t shard_rows = static_cast<std::size_t>(
      cli.get_int("--shard-rows", fast ? 4096 : 65536));
  const std::vector<std::size_t> shard_counts = {1, 4, 8};

  // Identity at a narrower width than the default 10000 bits keeps the
  // 100k-row zoo sweep in seconds; the merge arithmetic being gated is
  // width-independent.
  hdc::core::ExtractorConfig identity_config = setup.experiment.extractor;
  identity_config.dimensions = fast ? 128 : 256;
  const IdentityResult identity = run_identity(
      rows_identity, n_test, identity_config, setup.experiment.seed + 5,
      shard_counts);
  std::printf("# identity: %zu models over %zu rows in %.1fs\n",
              identity.models_checked, identity.rows, identity.seconds);

  hdc::core::ExtractorConfig stream_config = setup.experiment.extractor;
  stream_config.dimensions = 64;
  const bool multi_core = hdc::parallel::hardware_threads() > 1;
  const StreamResult stream = run_stream(rows_stream, shard_rows,
                                         stream_config,
                                         setup.experiment.seed + 9, multi_core);
  std::printf("# stream: %zu rows, %zu shards of <= %zu rows, peak %.2f MiB "
              "(budget %.2f MiB), %.0f rows/s\n",
              stream.rows, stream.num_shards, stream.shard_rows,
              static_cast<double>(stream.peak_resident_bytes) / 1048576.0,
              static_cast<double>(stream.resident_budget_bytes) / 1048576.0,
              stream.throughput_rows_per_s);

  const hdc::obs::MetricsSnapshot snapshot = hdc::obs::snapshot();
  const std::uint64_t hist_merge_ops =
      snapshot.counter_value("ml.hist_merge_ops");
  hdc::obs::set_enabled(false);

  const bool shard_identity = identity.identity_ok && identity.fingerprints_ok;
  int exit_code = 0;
  if (!shard_identity) {
    std::fprintf(stderr, "FATAL: 1-shard vs N-shard identity gate failed\n");
    exit_code = 1;
  }
  if (!stream.peak_within_budget) {
    std::fprintf(stderr,
                 "FATAL: peak resident %zu bytes exceeds the %zu budget\n",
                 stream.peak_resident_bytes, stream.resident_budget_bytes);
    exit_code = 1;
  }

  hdc::core::ExperimentConfig manifest_config = setup.experiment;
  manifest_config.extractor = identity_config;
  hdc::core::RunManifest manifest = hdc::core::make_run_manifest(
      setup.pima_m, "pima_m_synthetic", manifest_config);
  manifest.shard_rows = shard_rows;
  manifest.num_shards =
      hdc::data::make_shard_plan(setup.pima_m.n_rows(), shard_rows).size();
  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_shard")
      .field("rows_identity", identity.rows)
      .field("rows_stream", stream.rows)
      .field("shard_counts", std::vector<int>{1, 4, 8})
      .field("models_checked", identity.models_checked)
      .field("shard_identity", shard_identity)
      .field("encode_fingerprints_ok", identity.fingerprints_ok)
      .field("shard_rows", stream.shard_rows)
      .field("num_shards", stream.num_shards)
      .field("peak_resident_bytes", stream.peak_resident_bytes)
      .field("resident_budget_bytes", stream.resident_budget_bytes)
      .field("peak_within_budget", stream.peak_within_budget)
      .field("throughput_rows_per_s", stream.throughput_rows_per_s);
  if (multi_core) {
    json.field("speedup_valid", true)
        .field("speedup_stream_vs_inmem", stream.speedup_stream_vs_inmem);
  } else {
    json.field("speedup_skipped_reason", "hardware_threads==1");
  }
  json.field("hist_merge_ops", hist_merge_ops)
      .raw_field("manifest", hdc::core::to_json(manifest))
      .end();
  if (!json.write(out_path)) return 1;
  return exit_code;
}
