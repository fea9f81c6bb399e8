// Per-kernel, per-dispatch-tier micro-bench: Hamming reduction, bulk
// popcount, majority bundling, and the end-to-end encode path, measured on
// every SIMD tier this machine supports and emitted as machine-readable
// JSON (BENCH_kernels.json) so the perf trajectory is tracked per kernel.
// The row-to-bitplane transpose (BitMatrix::from_rows, portable, no tiers)
// is timed once per size: 1 row (a served request), 768 rows (Pima) and
// 4096 rows (a streamed shard), reported as ns per row. The bundle's
// packed-rows codec (hv::write_packed / read_packed, one binary word block)
// is timed at 768 rows (Pima) and 16,384 rows, reported as MB/s of packed
// words; the bench exits 1 if a round trip does not reproduce the rows.
//
// Throughput is reported as GB/s of hypervector words streamed through the
// kernel plus a per-unit latency (ns/pair, ns/word-KiB, ns/bundle, rows/s).
// The scalar tier is always present, so every row has a speedup baseline.
//
// Flags: --dim N (default 10000), --seed S, --reps R (default 5, best-of),
// --pairs P (default 200000), --out PATH (default BENCH_kernels.json),
// --fast (smaller problem sizes for CI smoke).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/extractor.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/bitvector.hpp"
#include "hv/search.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/timer.hpp"

namespace {

using hdc::simd::Tier;
using hdc::util::Timer;

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

struct TierResult {
  Tier tier = Tier::kScalar;
  double hamming_ns_per_pair = 0.0;
  double hamming_gbps = 0.0;
  double popcount_gbps = 0.0;
  double majority_ns_per_bundle = 0.0;
  double majority_gbps = 0.0;
  double encode_rows_per_sec = 0.0;
};

struct FromRowsResult {
  std::size_t rows = 0;
  std::size_t calls = 0;
  double ns_per_row = 0.0;
};

/// `rows` random rows of `dim` bits, padding bits clear.
hdc::hv::PackedHVs random_packed(std::size_t rows, std::size_t dim, hdc::util::Rng& rng) {
  hdc::hv::PackedHVs packed(dim, rows);
  const std::uint64_t tail =
      dim % 64 == 0 ? ~0ULL : (1ULL << (dim % 64)) - 1ULL;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t* row = packed.row(i);
    for (std::size_t w = 0; w < packed.words_per_row(); ++w) row[w] = rng();
    row[packed.words_per_row() - 1] &= tail;
  }
  return packed;
}

struct PackedCodecResult {
  std::size_t rows = 0;
  std::size_t body_bytes = 0;
  double write_mb_per_sec = 0.0;
  double read_mb_per_sec = 0.0;
  bool roundtrip_ok = false;
};

/// Best-of-`reps` write_packed (into a fresh string stream) and read_packed
/// (from a stream built before the clock starts) on `rows` random rows.
/// MB/s counts the packed words, 8 bytes each.
PackedCodecResult time_packed_codec(std::size_t rows, std::size_t dim,
                                    std::size_t reps, hdc::util::Rng& rng) {
  const hdc::hv::PackedHVs source = random_packed(rows, dim, rng);
  std::string body;
  const double write_s = best_of(reps, [&] {
    std::ostringstream out;
    hdc::util::serde::Writer writer(out);
    hdc::hv::write_packed(writer, source);
    body = std::move(out).str();
  });
  hdc::hv::PackedHVs loaded;
  double read_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    std::istringstream in(body);
    hdc::util::serde::Reader reader(in, "bench_kernels");
    Timer timer;
    loaded = hdc::hv::read_packed(reader, "rows");
    read_s = r == 0 ? timer.seconds() : std::min(read_s, timer.seconds());
  }
  const double mb = static_cast<double>(rows * source.words_per_row() * 8) / 1e6;
  PackedCodecResult res;
  res.rows = rows;
  res.body_bytes = body.size();
  res.write_mb_per_sec = mb / write_s;
  res.read_mb_per_sec = mb / read_s;
  res.roundtrip_ok = loaded.rows() == rows && loaded.bits() == dim &&
                     std::memcmp(loaded.row(0), source.row(0),
                                 rows * source.words_per_row() * 8) == 0;
  return res;
}

/// Best-of-`reps` time of BitMatrix::from_rows on `rows` random rows. Each
/// rep transposes max(1, 256 / rows) fresh copies, so the one-row case is
/// not timer-bound. The copies are made before the clock starts; each
/// result is freed before the next call, as a served request frees its
/// one-row matrix.
FromRowsResult time_from_rows(std::size_t rows, std::size_t dim,
                              std::size_t reps, hdc::util::Rng& rng) {
  const hdc::hv::PackedHVs source = random_packed(rows, dim, rng);
  FromRowsResult res;
  res.rows = rows;
  res.calls = std::max<std::size_t>(1, 256 / rows);
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    std::vector<hdc::hv::PackedHVs> inputs(res.calls, source);
    std::uint64_t first_words = 0;
    Timer timer;
    for (auto& input : inputs) {
      const hdc::hv::BitMatrix m = hdc::hv::BitMatrix::from_rows(std::move(input));
      first_words += m.column(0)[0];
    }
    const double s = timer.seconds();
    volatile std::uint64_t keep = first_words;  // the transposes stay live
    (void)keep;
    best = r == 0 ? s : std::min(best, s);
  }
  res.ns_per_row =
      best * 1e9 / static_cast<double>(res.calls * res.rows);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  const bool fast = cli.has_flag("--fast");
  const std::size_t dim =
      static_cast<std::size_t>(cli.get_int("--dim", 10000));
  const std::uint64_t seed = cli.get_uint("--seed", 2023);
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("--reps", fast ? 2 : 5));
  const std::size_t n_pairs =
      static_cast<std::size_t>(cli.get_int("--pairs", fast ? 20000 : 200000));
  const std::string out_path = cli.get_string("--out", "BENCH_kernels.json");

  const std::size_t words = (dim + 63) / 64;
  const std::size_t db_rows = 768;
  const std::size_t bundle_n = 9;  // a realistic record's feature count
  const std::size_t bundle_reps = fast ? 5000 : 50000;
  const std::size_t pop_words = fast ? 1u << 18 : 1u << 22;

  hdc::util::Rng rng(seed);
  // Random packed database; queries sweep it round-robin so the working set
  // matches the LOOCV access pattern rather than a single hot pair.
  std::vector<std::uint64_t> database(db_rows * words);
  for (auto& w : database) w = rng();
  std::vector<std::uint64_t> pop_buffer(pop_words);
  for (auto& w : pop_buffer) w = rng();
  std::vector<std::uint64_t> bundle_rows(bundle_n * words);
  for (auto& w : bundle_rows) w = rng();
  std::vector<const std::uint64_t*> bundle_ptrs(bundle_n);
  for (std::size_t r = 0; r < bundle_n; ++r) {
    bundle_ptrs[r] = bundle_rows.data() + r * words;
  }
  std::vector<std::uint64_t> bundle_out(words);

  // Encode path: the paper's Pima protocol (768 rows, class-median imputed).
  hdc::data::PimaConfig pima_config;
  pima_config.seed = seed;
  const hdc::data::Dataset ds =
      hdc::data::impute_class_median(hdc::data::make_pima(pima_config));
  hdc::core::ExtractorConfig extractor_config;
  extractor_config.dimensions = dim;
  hdc::core::HdcFeatureExtractor extractor(extractor_config);
  extractor.fit(ds);

  const Tier initial_tier = hdc::simd::active_tier();
  std::printf("# bench_kernels: dim=%zu words=%zu pairs=%zu reps=%zu\n", dim,
              words, n_pairs, reps);

  volatile std::size_t sink = 0;  // keep kernel results observable
  std::vector<TierResult> results;
  for (const Tier tier : hdc::simd::supported_tiers()) {
    const hdc::simd::Kernels& kernels = hdc::simd::kernels(tier);
    TierResult res;
    res.tier = tier;

    const double hamming_s = best_of(reps, [&] {
      std::size_t total = 0;
      for (std::size_t p = 0; p < n_pairs; ++p) {
        const std::uint64_t* a = database.data() + (p % db_rows) * words;
        const std::uint64_t* b =
            database.data() + ((p * 7 + 1) % db_rows) * words;
        total += kernels.hamming(a, b, words);
      }
      sink = total;
    });
    res.hamming_ns_per_pair = hamming_s * 1e9 / static_cast<double>(n_pairs);
    res.hamming_gbps = static_cast<double>(n_pairs * 2 * words * 8) /
                       hamming_s / 1e9;

    const double pop_s = best_of(reps, [&] {
      sink = kernels.popcount(pop_buffer.data(), pop_words);
    });
    res.popcount_gbps = static_cast<double>(pop_words * 8) / pop_s / 1e9;

    const double majority_s = best_of(reps, [&] {
      for (std::size_t r = 0; r < bundle_reps; ++r) {
        kernels.majority(bundle_ptrs.data(), bundle_n, words,
                         bundle_out.data(), true);
      }
      sink = bundle_out[0];
    });
    res.majority_ns_per_bundle =
        majority_s * 1e9 / static_cast<double>(bundle_reps);
    res.majority_gbps =
        static_cast<double>(bundle_reps * bundle_n * words * 8) / majority_s /
        1e9;

    // End-to-end encode throughput with this tier forced (single thread, so
    // the number is a kernel comparison, not a scaling one).
    hdc::simd::set_tier(tier);
    hdc::parallel::ThreadPool pool(1);
    std::vector<hdc::hv::BitVector> vectors;
    const double encode_s =
        best_of(reps, [&] { vectors = extractor.transform(ds, &pool); });
    res.encode_rows_per_sec = static_cast<double>(ds.n_rows()) / encode_s;
    hdc::simd::set_tier(initial_tier);

    std::printf("# tier=%-6s hamming=%7.1f ns/pair (%6.2f GB/s)  "
                "popcount=%6.2f GB/s  majority=%8.1f ns/bundle (%6.2f GB/s)  "
                "encode=%9.0f rows/s\n",
                hdc::simd::tier_name(tier), res.hamming_ns_per_pair,
                res.hamming_gbps, res.popcount_gbps, res.majority_ns_per_bundle,
                res.majority_gbps, res.encode_rows_per_sec);
    results.push_back(res);
  }
  (void)sink;

  std::vector<FromRowsResult> from_rows;
  for (const std::size_t rows : {std::size_t{1}, db_rows, std::size_t{4096}}) {
    from_rows.push_back(time_from_rows(rows, dim, reps, rng));
    std::printf("# from_rows rows=%-5zu %10.1f ns/row\n", rows,
                from_rows.back().ns_per_row);
  }

  std::vector<PackedCodecResult> packed_codec;
  bool codec_ok = true;
  for (const std::size_t rows : {db_rows, std::size_t{16384}}) {
    packed_codec.push_back(time_packed_codec(rows, dim, reps, rng));
    const PackedCodecResult& r = packed_codec.back();
    codec_ok = codec_ok && r.roundtrip_ok;
    std::printf("# packed_codec rows=%-5zu write=%8.1f MB/s  read=%8.1f MB/s  "
                "body=%zu bytes%s\n",
                rows, r.write_mb_per_sec, r.read_mb_per_sec, r.body_bytes,
                r.roundtrip_ok ? "" : "  ROUND TRIP MISMATCH");
  }

  const TierResult& scalar = results.front();
  const TierResult& best = results.back();

  hdc::core::ExperimentConfig manifest_config;
  manifest_config.extractor = extractor_config;
  manifest_config.seed = seed;
  hdc::bench::JsonWriter json;
  json.object()
      .field("bench", "bench_kernels")
      .field("dimensions", dim)
      .field("words_per_vector", words)
      .field("seed", seed)
      .field("reps", reps)
      .field("hamming_pairs", n_pairs)
      .field("majority_bundle_rows", bundle_n)
      .field("popcount_buffer_words", pop_words)
      .field("active_tier", hdc::simd::tier_name(initial_tier));
  json.key("tiers").array();
  for (const TierResult& r : results) {
    json.object().field("tier", hdc::simd::tier_name(r.tier));
    json.key("hamming").object()
        .field("ns_per_pair", r.hamming_ns_per_pair)
        .field("gb_per_sec", r.hamming_gbps)
        .end();
    json.key("popcount").object().field("gb_per_sec", r.popcount_gbps).end();
    json.key("majority").object()
        .field("ns_per_bundle", r.majority_ns_per_bundle)
        .field("gb_per_sec", r.majority_gbps)
        .end();
    json.key("encode").object().field("rows_per_sec", r.encode_rows_per_sec).end();
    json.end();
  }
  json.end();
  json.key("speedup_best_vs_scalar").object()
      .field("tier", hdc::simd::tier_name(best.tier))
      .field("hamming", scalar.hamming_ns_per_pair / best.hamming_ns_per_pair)
      .field("popcount", best.popcount_gbps / scalar.popcount_gbps)
      .field("majority", scalar.majority_ns_per_bundle / best.majority_ns_per_bundle)
      .field("encode", best.encode_rows_per_sec / scalar.encode_rows_per_sec)
      .end();
  json.key("from_rows").array();
  for (const FromRowsResult& r : from_rows) {
    json.object()
        .field("rows", r.rows)
        .field("calls_per_rep", r.calls)
        .field("ns_per_row", r.ns_per_row)
        .end();
  }
  json.end();
  json.key("packed_codec").array();
  for (const PackedCodecResult& r : packed_codec) {
    json.object()
        .field("rows", r.rows)
        .field("body_bytes", r.body_bytes)
        .field("write_mb_per_sec", r.write_mb_per_sec)
        .field("read_mb_per_sec", r.read_mb_per_sec)
        .field("roundtrip_ok", r.roundtrip_ok)
        .end();
  }
  json.end();
  json.raw_field("manifest", hdc::bench::manifest_json(ds, "pima_m_synthetic",
                                                       manifest_config));
  json.end();
  return json.write(out_path) && codec_ok ? 0 : 1;
}
