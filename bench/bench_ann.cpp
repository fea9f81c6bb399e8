// ANN-index bench: recall and work-reduction of hv::ann against the exact
// tiled sweep, on the golden datasets and on synthetic cohorts up to 100k
// rows. Emits BENCH_ann.json.
//
// Protocol:
//   1. Golden recall gate: encode Pima M and Sylhet, build the index with
//      default parameters, and measure tie-tolerant leave-one-out recall@1
//      against the exact kernels. The bench exits non-zero when the minimum
//      golden recall@1 drops below 0.999 (the ROADMAP acceptance gate). On
//      Pima M (768 rows) the one-query exact and ANN p50 latencies are
//      recorded side by side.
//   2. Determinism gate: the `exact` fallback must match hv::nearest_neighbors
//      result-for-result, a rebuild under the same seed must serialize
//      byte-identically, and a save/load round-trip must serialize
//      byte-identically.
//   3. Scale sweep: synthetic cohorts (data::make_synthetic_cohort) at
//      n ∈ {1k, 10k, 100k} rows (reduced under --fast), with separately
//      generated query rows. Per size: build time, recall@1/@5,
//      candidates-per-query, word-ops reduction vs the exact sweep, and
//      per-query p50/p99 latency for both paths. At n >= 100k the measured
//      word-ops reduction must be >= 5x or the bench exits non-zero.
//      Per size the same queries also run as 64-query blocks (one top_k
//      call each, `batch64_us_per_query`); their answers must equal the
//      per-query calls (`batch_identical`) or the bench exits non-zero.
//   4. Streamed-build gates: Index::build_sharded over the same rows split
//      into {1, 4, 8} shards must serialize byte-identically to the
//      in-memory build, and its measured peak resident bytes must stay
//      within the analytic budget (largest shard + finished index + the
//      build's transient working set). Either failure exits non-zero.
//   5. Sketch-scan kernel sweep: per SIMD tier, one batched sketch_scan
//      call over a contiguous 4096-row sketch block versus the per-row
//      hamming loop it replaced. The best supported tier must come out
//      >= 2x faster per block or the bench exits non-zero.
//
// Flags (bench_common): --dim N, --seed S, --fast; plus --queries Q
// (default 1000, fast 200), --reps R (accepted for smoke-harness
// compatibility; unused) and --out PATH (default BENCH_ann.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "hv/ann.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "hv/sharded_bits.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using hdc::hv::Neighbor;
using hdc::hv::PackedHVs;
using hdc::util::Timer;
namespace ann = hdc::hv::ann;

double percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

std::string serialized(const ann::Index& index) {
  std::ostringstream out;
  index.save(out);
  return out.str();
}

/// Copy rows [begin, end) of `bits` into a standalone PackedHVs.
PackedHVs slice_rows(const hdc::hv::BitMatrix& bits, std::size_t begin,
                     std::size_t end) {
  PackedHVs out(bits.cols(), end - begin);
  const std::size_t words = bits.words_per_row();
  for (std::size_t i = begin; i < end; ++i) {
    std::memcpy(out.row(i - begin), bits.row_bits(i),
                words * sizeof(std::uint64_t));
  }
  return out;
}

/// Tie-tolerant leave-one-out recall@1 of the default-parameter index on one
/// encoded golden dataset, plus the exact-fallback identity check.
struct GoldenResult {
  std::size_t rows = 0;
  double recall_at_1 = 0.0;
  double build_seconds = 0.0;
  bool exact_fallback_ok = false;
  double exact_p50_us = 0.0;  // one-query serving latency, exact sweep
  double ann_p50_us = 0.0;    // one-query serving latency, default index
};

GoldenResult golden_recall(const hdc::data::Dataset& ds,
                           const hdc::core::ExtractorConfig& config) {
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  const PackedHVs packed = extractor.transform_packed(ds);

  GoldenResult result;
  result.rows = packed.rows();
  Timer build;
  const ann::Index index = ann::Index::build(packed);
  result.build_seconds = build.seconds();

  hdc::hv::SearchOptions exact_options;
  exact_options.exclude_same_index = true;
  const std::vector<Neighbor> exact =
      hdc::hv::nearest_neighbors(packed, packed, exact_options);

  ann::SearchOptions options;
  options.exclude_same_index = true;
  const std::vector<Neighbor> approx = index.nearest(packed, packed, options);

  std::size_t hits = 0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    // A hit is any neighbour at the true best distance (distance ties are
    // interchangeable for the 1-NN classifier).
    if (approx[q].distance == exact[q].distance) ++hits;
  }
  result.recall_at_1 =
      static_cast<double>(hits) / static_cast<double>(exact.size());

  ann::SearchOptions fallback;
  fallback.exact = true;
  fallback.exclude_same_index = true;
  result.exact_fallback_ok = index.nearest(packed, packed, fallback) == exact;

  // Serving latency of one query at this database size (the database rows
  // serve as the queries; the work per query does not depend on which).
  std::vector<double> exact_us;
  std::vector<double> ann_us;
  for (std::size_t q = 0; q < packed.rows(); ++q) {
    PackedHVs one(packed.bits(), 1);
    std::memcpy(one.row(0), packed.row(q),
                packed.words_per_row() * sizeof(std::uint64_t));
    Timer t_exact;
    (void)hdc::hv::nearest_neighbors(one, packed);
    exact_us.push_back(t_exact.seconds() * 1e6);
    Timer t_ann;
    (void)index.nearest(one, packed);
    ann_us.push_back(t_ann.seconds() * 1e6);
  }
  std::sort(exact_us.begin(), exact_us.end());
  std::sort(ann_us.begin(), ann_us.end());
  result.exact_p50_us = percentile(exact_us, 0.50);
  result.ann_p50_us = percentile(ann_us, 0.50);
  return result;
}

struct SizeResult {
  std::size_t rows = 0;
  std::size_t queries = 0;
  double build_seconds = 0.0;
  double recall_at_1 = 0.0;
  double recall_at_5 = 0.0;
  double candidates_per_query = 0.0;
  std::uint64_t word_ops_exact = 0;
  std::uint64_t word_ops_ann = 0;
  double word_ops_reduction = 0.0;
  double exact_p50_us = 0.0;
  double exact_p99_us = 0.0;
  double ann_p50_us = 0.0;
  double ann_p99_us = 0.0;
  double batch64_us_per_query = 0.0;  // blocked top_k, 64 queries per call
  bool batch_identical = false;       // blocked answers == per-query answers
};

SizeResult sweep_size(std::size_t rows, std::size_t n_queries,
                      const hdc::core::ExtractorConfig& extractor_config,
                      std::uint64_t seed) {
  SizeResult result;
  result.rows = rows;
  result.queries = n_queries;

  // Database and query rows come from disjoint index ranges of the same
  // deterministic cohort stream, so queries are unseen but identically
  // distributed (no exclude-self bookkeeping needed).
  const hdc::data::Dataset cohort =
      hdc::data::make_synthetic_cohort(rows + n_queries, seed);
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(cohort);
  const hdc::hv::BitMatrix bits = extractor.transform_bits(cohort);
  const PackedHVs database = slice_rows(bits, 0, rows);
  const PackedHVs queries = slice_rows(bits, rows, rows + n_queries);
  const std::size_t words = database.words_per_row();

  Timer build;
  const ann::Index index = ann::Index::build(database);
  result.build_seconds = build.seconds();

  // Exact reference + per-query latency (top-5 so recall@5 has its oracle).
  std::vector<std::vector<Neighbor>> exact(n_queries);
  std::vector<double> exact_us;
  exact_us.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    PackedHVs one(queries.bits(), 1);
    std::memcpy(one.row(0), queries.row(q), words * sizeof(std::uint64_t));
    Timer t;
    exact[q] = hdc::hv::top_k_neighbors(one, database, 5).front();
    exact_us.push_back(t.seconds() * 1e6);
  }

  // ANN per-query latency + work accounting.
  std::vector<std::vector<Neighbor>> approx(n_queries);
  std::vector<double> ann_us;
  ann_us.reserve(n_queries);
  ann::SearchStats totals;
  for (std::size_t q = 0; q < n_queries; ++q) {
    PackedHVs one(queries.bits(), 1);
    std::memcpy(one.row(0), queries.row(q), words * sizeof(std::uint64_t));
    Timer t;
    ann::SearchStats stats;
    approx[q] = index.top_k(one, database, 5, {}, &stats).front();
    ann_us.push_back(t.seconds() * 1e6);
    totals.probes += stats.probes;
    totals.candidates += stats.candidates;
    totals.reranked += stats.reranked;
    totals.word_ops += stats.word_ops;
  }

  // The same queries as 64-query blocks: one top_k call per block must
  // answer exactly as the per-query calls above.
  constexpr std::size_t kBatch = 64;
  double batch_seconds = 0.0;
  result.batch_identical = true;
  for (std::size_t first = 0; first < n_queries; first += kBatch) {
    const std::size_t count = std::min(kBatch, n_queries - first);
    PackedHVs block(queries.bits(), count);
    std::memcpy(block.row(0), queries.row(first),
                count * words * sizeof(std::uint64_t));
    Timer t;
    const auto lists = index.top_k(block, database, 5);
    batch_seconds += t.seconds();
    for (std::size_t i = 0; i < count; ++i) {
      if (lists[i] != approx[first + i]) result.batch_identical = false;
    }
  }
  result.batch64_us_per_query =
      batch_seconds * 1e6 / static_cast<double>(n_queries);
  if (!result.batch_identical) {
    std::fprintf(stderr,
                 "FATAL: blocked top_k differs from per-query calls at n=%zu\n",
                 rows);
  }

  std::size_t hits_1 = 0;
  std::size_t hits_5 = 0;
  std::size_t want_5 = 0;
  for (std::size_t q = 0; q < n_queries; ++q) {
    if (approx[q].front().distance == exact[q].front().distance) ++hits_1;
    // Tie-tolerant recall@5: an ANN neighbour counts when it is at least as
    // close as the exact 5th-best.
    const std::size_t k = std::min<std::size_t>(5, exact[q].size());
    const std::size_t kth = exact[q][k - 1].distance;
    want_5 += k;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, approx[q].size()); ++i) {
      if (approx[q][i].distance <= kth) ++hits_5;
    }
  }
  result.recall_at_1 =
      static_cast<double>(hits_1) / static_cast<double>(n_queries);
  result.recall_at_5 =
      static_cast<double>(hits_5) / static_cast<double>(want_5);
  result.candidates_per_query =
      static_cast<double>(totals.candidates) / static_cast<double>(n_queries);
  result.word_ops_exact =
      static_cast<std::uint64_t>(n_queries) * rows * words;
  result.word_ops_ann = totals.word_ops;
  result.word_ops_reduction =
      totals.word_ops > 0
          ? static_cast<double>(result.word_ops_exact) /
                static_cast<double>(totals.word_ops)
          : 0.0;

  std::sort(exact_us.begin(), exact_us.end());
  std::sort(ann_us.begin(), ann_us.end());
  result.exact_p50_us = percentile(exact_us, 0.50);
  result.exact_p99_us = percentile(exact_us, 0.99);
  result.ann_p50_us = percentile(ann_us, 0.50);
  result.ann_p99_us = percentile(ann_us, 0.99);
  return result;
}

/// Streamed-build identity + bounded-memory gates (protocol step 4).
struct StreamedResult {
  std::size_t rows = 0;
  bool identical = false;              // serialized cmp at every shard count
  std::uint64_t bytes_peak = 0;        // measured, at the max shard count
  std::uint64_t shard_bytes_max = 0;
  std::uint64_t index_bytes = 0;
  std::uint64_t budget = 0;            // analytic upper bound on bytes_peak
  bool within_budget = false;
  std::uint64_t database_bytes = 0;    // what a fully resident build holds
};

StreamedResult streamed_gates(std::size_t rows,
                              const hdc::core::ExtractorConfig& extractor_config,
                              std::uint64_t seed) {
  const hdc::data::Dataset cohort = hdc::data::make_synthetic_cohort(rows, seed);
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(cohort);
  const hdc::hv::BitMatrix bits = extractor.transform_bits(cohort);
  const PackedHVs database = slice_rows(bits, 0, rows);
  const std::size_t words = database.words_per_row();

  StreamedResult result;
  result.rows = rows;
  result.database_bytes = rows * words * sizeof(std::uint64_t);

  const ann::Index reference = ann::Index::build(database);
  const std::string reference_bytes = serialized(reference);

  result.identical = true;
  ann::BuildStats stats;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const std::size_t shard_rows = (rows + shards - 1) / shards;
    hdc::hv::ShardedBitMatrix sharded;
    for (std::size_t begin = 0; begin < rows; begin += shard_rows) {
      sharded.append_shard(hdc::hv::BitMatrix::from_rows(
          slice_rows(bits, begin, std::min(rows, begin + shard_rows))));
    }
    const hdc::hv::ShardedBitMatrixSource source(sharded);
    const ann::Index streamed =
        ann::Index::build_sharded(source, {}, nullptr, &stats);
    if (serialized(streamed) != reference_bytes) {
      result.identical = false;
      std::fprintf(stderr,
                   "FATAL: streamed build at %zu shards is not byte-identical\n",
                   shards);
    }
  }

  // Analytic budget, mirroring build_impl's checkpoint accounting term by
  // term (each container bounded from above, summed across phases, so the
  // measured peak can never legitimately exceed it): the largest resident
  // shard + the finished index + pre-compaction centroids, the Lloyd sample
  // with its per-row cells, its cell-sorted member pointers and the cell
  // offsets, the full assignment, and the pass-3 cursor/slot scratch.
  const ann::Config& resolved = reference.config();
  const std::size_t sample_rows = std::min(rows, resolved.lloyd_sample);
  const std::size_t max_shard_rows = (rows + 7) / 8;  // largest shard at 8 shards
  result.bytes_peak = stats.bytes_peak;          // from the 8-shard build
  result.shard_bytes_max = stats.shard_bytes_max;
  result.index_bytes = stats.index_bytes;
  result.budget =
      stats.shard_bytes_max + stats.index_bytes +
      resolved.cells * words * sizeof(std::uint64_t) +
      sample_rows * words * sizeof(std::uint64_t) +
      sample_rows * sizeof(std::uint32_t) +
      sample_rows * sizeof(const std::uint64_t*) +
      (resolved.cells + 1) * sizeof(std::size_t) +
      rows * sizeof(std::uint32_t) +
      (resolved.cells + 1) * sizeof(std::uint64_t) +
      max_shard_rows * sizeof(std::uint64_t);
  result.within_budget = result.bytes_peak <= result.budget;
  if (!result.within_budget) {
    std::fprintf(stderr,
                 "FATAL: streamed build peak %llu bytes exceeds the %llu budget\n",
                 static_cast<unsigned long long>(result.bytes_peak),
                 static_cast<unsigned long long>(result.budget));
  }
  return result;
}

/// Per-tier sketch_scan vs per-row-hamming sweep (protocol step 5). Times
/// one pass over a contiguous block of `kScanRows` 256-bit sketches, best
/// of `trials`, and reports nanoseconds per pass.
struct TierSketchResult {
  hdc::simd::Tier tier;
  double per_row_ns = 0.0;
  double scan_ns = 0.0;
  double speedup = 0.0;
};

constexpr std::size_t kScanRows = 4096;
constexpr std::size_t kScanWords = 4;  // 256-bit sketches, the default width

std::vector<TierSketchResult> sketch_scan_sweep(std::size_t reps,
                                                std::uint64_t seed) {
  hdc::util::Rng rng(seed);
  std::vector<std::uint64_t> query(kScanWords);
  std::vector<std::uint64_t> block(kScanRows * kScanWords);
  for (auto& w : query) w = rng();
  for (auto& w : block) w = rng();
  std::vector<std::uint32_t> out(kScanRows);

  volatile std::uint64_t sink = 0;  // defeat dead-code elimination
  const auto best_of = [&](const auto& fn) {
    double best = 1e30;
    for (int trial = 0; trial < 5; ++trial) {
      Timer t;
      for (std::size_t r = 0; r < reps; ++r) fn();
      best = std::min(best, t.seconds() / static_cast<double>(reps));
    }
    return best * 1e9;
  };

  std::vector<TierSketchResult> results;
  for (const hdc::simd::Tier tier : hdc::simd::supported_tiers()) {
    const hdc::simd::Kernels& kernels = hdc::simd::kernels(tier);
    TierSketchResult r;
    r.tier = tier;
    r.per_row_ns = best_of([&] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < kScanRows; ++i) {
        total += kernels.hamming(query.data(), block.data() + i * kScanWords,
                                 kScanWords);
      }
      sink = sink + total;
    });
    r.scan_ns = best_of([&] {
      kernels.sketch_scan(query.data(), block.data(), kScanRows, kScanWords,
                          out.data());
      sink = sink + out[0] + out[kScanRows - 1];
    });
    r.speedup = r.scan_ns > 0.0 ? r.per_row_ns / r.scan_ns : 0.0;
    results.push_back(r);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  const hdc::bench::BenchSetup setup = hdc::bench::make_setup(argc, argv);
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::size_t n_queries =
      static_cast<std::size_t>(cli.get_int("--queries", fast ? 200 : 1000));
  const std::string out_path = cli.get_string("--out", "BENCH_ann.json");

  // 1. Golden recall gate (default index parameters, LOO protocol).
  const GoldenResult pima = golden_recall(setup.pima_m, setup.experiment.extractor);
  const GoldenResult sylhet = golden_recall(setup.sylhet, setup.experiment.extractor);
  const double recall_at_1 = std::min(pima.recall_at_1, sylhet.recall_at_1);
  std::printf("# golden: pima_m recall@1=%.4f (n=%zu), sylhet recall@1=%.4f (n=%zu)\n",
              pima.recall_at_1, pima.rows, sylhet.recall_at_1, sylhet.rows);
  std::printf("# golden pima_m one-query p50: exact=%.1fus ann=%.1fus\n",
              pima.exact_p50_us, pima.ann_p50_us);

  // 2. Determinism gate: rebuild + round-trip byte identity on an encoded
  // golden set, exact fallback identity from the golden runs.
  bool determinism_ok = pima.exact_fallback_ok && sylhet.exact_fallback_ok;
  {
    hdc::core::HdcFeatureExtractor extractor(setup.experiment.extractor);
    extractor.fit(setup.sylhet);
    const PackedHVs packed = extractor.transform_packed(setup.sylhet);
    const ann::Index a = ann::Index::build(packed);
    const ann::Index b = ann::Index::build(packed);
    const std::string bytes = serialized(a);
    if (bytes != serialized(b)) {
      determinism_ok = false;
      std::fprintf(stderr, "FATAL: seeded rebuild is not byte-identical\n");
    }
    std::istringstream in(bytes);
    if (serialized(ann::Index::load(in)) != bytes) {
      determinism_ok = false;
      std::fprintf(stderr, "FATAL: save/load round-trip is not byte-identical\n");
    }
  }
  if (!determinism_ok) {
    std::fprintf(stderr, "FATAL: determinism gate failed\n");
  }

  // 3. Scale sweep over synthetic cohorts.
  std::vector<std::size_t> sizes =
      fast ? std::vector<std::size_t>{1000, 3000}
           : std::vector<std::size_t>{1000, 10000, 100000};
  std::vector<SizeResult> results;
  for (const std::size_t rows : sizes) {
    results.push_back(sweep_size(rows, n_queries, setup.experiment.extractor,
                                 setup.experiment.seed));
    const SizeResult& r = results.back();
    std::printf("# n=%zu: build=%.3fs recall@1=%.4f recall@5=%.4f "
                "cand/q=%.0f word-ops x%.1f exact p50=%.0fus ann p50=%.0fus "
                "ann batch64=%.0fus/query\n",
                r.rows, r.build_seconds, r.recall_at_1, r.recall_at_5,
                r.candidates_per_query, r.word_ops_reduction, r.exact_p50_us,
                r.ann_p50_us, r.batch64_us_per_query);
  }
  const SizeResult& largest = results.back();
  const bool batch_identical =
      std::all_of(results.begin(), results.end(),
                  [](const SizeResult& r) { return r.batch_identical; });

  // 4. Streamed-build identity + bounded-memory gates.
  const StreamedResult streamed = streamed_gates(
      fast ? 2000 : 20000, setup.experiment.extractor, setup.experiment.seed);
  std::printf("# streamed n=%zu: identical=%s peak=%llu budget=%llu "
              "(shard_max=%llu index=%llu full_db=%llu)\n",
              streamed.rows, streamed.identical ? "yes" : "NO",
              static_cast<unsigned long long>(streamed.bytes_peak),
              static_cast<unsigned long long>(streamed.budget),
              static_cast<unsigned long long>(streamed.shard_bytes_max),
              static_cast<unsigned long long>(streamed.index_bytes),
              static_cast<unsigned long long>(streamed.database_bytes));

  // 5. Per-tier sketch-scan speedup sweep.
  const std::vector<TierSketchResult> sketch_tiers =
      sketch_scan_sweep(fast ? 20 : 100, setup.experiment.seed);
  for (const TierSketchResult& r : sketch_tiers) {
    std::printf("# sketch_scan %s: per-row=%.0fns scan=%.0fns speedup=%.2fx\n",
                hdc::simd::tier_name(r.tier), r.per_row_ns, r.scan_ns,
                r.speedup);
  }
  const TierSketchResult& best_tier = sketch_tiers.back();

  // Hard gates.
  int exit_code = 0;
  if (recall_at_1 < 0.999) {
    std::fprintf(stderr,
                 "FATAL: golden recall@1 %.5f below the 0.999 gate\n",
                 recall_at_1);
    exit_code = 1;
  }
  if (!determinism_ok) exit_code = 1;
  if (largest.rows >= 100000 && largest.word_ops_reduction < 5.0) {
    std::fprintf(stderr,
                 "FATAL: word-ops reduction %.2fx at n=%zu below the 5x gate\n",
                 largest.word_ops_reduction, largest.rows);
    exit_code = 1;
  }
  if (!streamed.identical || !streamed.within_budget) exit_code = 1;
  if (!batch_identical) exit_code = 1;
  if (best_tier.speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: sketch_scan speedup %.2fx on %s below the 2x gate\n",
                 best_tier.speedup, hdc::simd::tier_name(best_tier.tier));
    exit_code = 1;
  }

  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_ann")
      .field("dimensions", setup.experiment.extractor.dimensions)
      .field("recall_at_1", recall_at_1)
      .field("golden_pima_m_recall_at_1", pima.recall_at_1)
      .field("golden_sylhet_recall_at_1", sylhet.recall_at_1)
      .field("golden_rows", std::vector<std::size_t>{pima.rows, sylhet.rows})
      .field("golden_pima_m_exact_p50_us", pima.exact_p50_us)
      .field("golden_pima_m_ann_p50_us", pima.ann_p50_us)
      .field("determinism_ok", determinism_ok)
      .field("batch_identical", batch_identical)
      .field("rows_max", largest.rows)
      .field("word_ops_reduction", largest.word_ops_reduction);
  json.key("sizes").array();
  for (const SizeResult& r : results) {
    json.object()
        .field("rows", r.rows)
        .field("queries", r.queries)
        .field("build_seconds", r.build_seconds)
        .field("recall_at_1", r.recall_at_1)
        .field("recall_at_5", r.recall_at_5)
        .field("candidates_per_query", r.candidates_per_query)
        .field("word_ops_exact", r.word_ops_exact)
        .field("word_ops_ann", r.word_ops_ann)
        .field("word_ops_reduction", r.word_ops_reduction)
        .field("exact_p50_us", r.exact_p50_us)
        .field("exact_p99_us", r.exact_p99_us)
        .field("ann_p50_us", r.ann_p50_us)
        .field("ann_p99_us", r.ann_p99_us)
        .field("batch64_us_per_query", r.batch64_us_per_query)
        .field("batch_identical", r.batch_identical)
        .end();
  }
  json.end()
      .field("streamed_rows", streamed.rows)
      .field("streamed_build_identical", streamed.identical)
      .field("build_bytes_peak", streamed.bytes_peak)
      .field("build_bytes_budget", streamed.budget)
      .field("build_bytes_within_budget", streamed.within_budget)
      .field("build_shard_bytes_max", streamed.shard_bytes_max)
      .field("build_index_bytes", streamed.index_bytes)
      .field("database_bytes", streamed.database_bytes)
      .field("sketch_scan_rows", kScanRows)
      .field("sketch_scan_words", kScanWords)
      .field("sketch_scan_tier", hdc::simd::tier_name(best_tier.tier))
      .field("sketch_scan_speedup", best_tier.speedup);
  json.key("sketch_tiers").array();
  for (const TierSketchResult& r : sketch_tiers) {
    json.object()
        .field("tier", hdc::simd::tier_name(r.tier))
        .field("per_row_ns", r.per_row_ns)
        .field("scan_ns", r.scan_ns)
        .field("speedup", r.speedup)
        .end();
  }
  json.end()
      .raw_field("manifest", hdc::bench::manifest_json(setup.pima_m, "pima_m_synthetic",
                                                       setup.experiment))
      .end();
  if (!json.write(out_path)) return 1;
  return exit_code;
}
