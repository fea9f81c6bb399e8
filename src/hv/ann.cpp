#include "hv/ann.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "hv/sharded_bits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace hdc::hv::ann {

namespace {

constexpr std::size_t kMaxSketchBits = 1024;
constexpr std::size_t kMaxRows = 1ULL << 27;
constexpr std::uint64_t kSketchSeedStream = 0x534b4554ULL;  // "SKET"
/// Auto-nprobe floors the expected candidate count at this many rows.
constexpr std::size_t kAutoProbeRowFloor = 600;

/// Registry handles resolved once per process; counts are derived outside
/// the kernels, so the disabled path costs one relaxed load per chunk.
struct AnnMetrics {
  obs::Counter& queries = obs::counter("hv.ann.queries");
  obs::Counter& probes = obs::counter("hv.ann.probes");
  obs::Counter& candidates = obs::counter("hv.ann.candidates");
  obs::Counter& reranked = obs::counter("hv.ann.reranked");
  obs::Counter& word_ops = obs::counter("hv.ann.word_ops");
  obs::Counter& sketch_blocks = obs::counter("hv.ann.sketch_blocks");

  static AnnMetrics& get() {
    static AnnMetrics metrics;
    return metrics;
  }
};

/// Platform-stable FNV-1a 64 over little-endian word bytes plus the shape,
/// so a fingerprint written on one machine verifies on any other.
std::uint64_t fingerprint_words(const std::uint64_t* words, std::size_t n,
                                std::size_t bits, std::size_t rows) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  eat(bits);
  eat(rows);
  for (std::size_t i = 0; i < n; ++i) eat(words[i]);
  return h;
}

/// Queries searched as one block: their rerank pairs share one row-ordered
/// pass over the database.
constexpr std::size_t kQueryBlock = 64;
constexpr unsigned kQuerySlotBits = 6;  // a pair's query slot in its block
static_assert(kQueryBlock == std::size_t{1} << kQuerySlotBits);
/// Digit width of the radix sort that orders a block's pairs by row.
constexpr unsigned kRowRadixBits = 8;

bool neighbor_less(const Neighbor& a, const Neighbor& b) noexcept {
  return a.distance != b.distance ? a.distance < b.distance : a.index < b.index;
}

/// Orders `row << kQuerySlotBits | slot` pairs by row: an LSD radix sort
/// over `passes` digits of the row bits. Stable, so a row's pairs keep
/// their order. `scratch` and `counts` are caller-owned buffers reused
/// across calls.
void sort_pairs_by_row(std::vector<std::uint64_t>& pairs,
                       std::vector<std::uint64_t>& scratch,
                       std::vector<std::size_t>& counts, std::size_t passes) {
  counts.resize(std::size_t{1} << kRowRadixBits);
  const std::uint64_t digit_mask = counts.size() - 1;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const unsigned shift =
        kQuerySlotBits + static_cast<unsigned>(pass) * kRowRadixBits;
    std::fill(counts.begin(), counts.end(), 0);
    for (const std::uint64_t pair : pairs) {
      ++counts[(pair >> shift) & digit_mask];
    }
    std::size_t sum = 0;
    for (std::size_t& count : counts) {
      const std::size_t c = count;
      count = sum;
      sum += c;
    }
    scratch.resize(pairs.size());
    for (const std::uint64_t pair : pairs) {
      scratch[counts[(pair >> shift) & digit_mask]++] = pair;
    }
    pairs.swap(scratch);
  }
}

}  // namespace

void Index::sketch_row(const std::uint64_t* words, std::uint64_t* out) const {
  std::fill(out, out + sketch_words_, 0ULL);
  for (std::size_t s = 0; s < positions_.size(); ++s) {
    const std::uint32_t bit = positions_[s];
    out[s >> 6] |= ((words[bit >> 6] >> (bit & 63)) & 1ULL) << (s & 63);
  }
}

Index Index::build(const PackedHVs& database, const Config& config,
                   parallel::ThreadPool* pool, BuildStats* stats) {
  if (database.empty()) {
    throw std::invalid_argument("ann::build: empty database");
  }
  // One whole-database shard: the streamed core then runs the identical
  // arithmetic the dedicated in-memory build used to.
  const detail::BuildShard whole{
      0, database.rows(), database.row(0),
      database.rows() * database.words_per_row() * sizeof(std::uint64_t)};
  return build_impl(
      database.rows(), database.bits(), 1,
      [&whole](std::size_t) { return whole; }, config, pool, stats);
}

Index Index::build_sharded(const BitShardSource& source, const Config& config,
                           parallel::ThreadPool* pool, BuildStats* stats) {
  if (source.rows() == 0 || source.num_shards() == 0) {
    throw std::invalid_argument("ann::build: empty database");
  }
  return build_impl(
      source.rows(), source.cols(), source.num_shards(),
      [&source](std::size_t s) {
        const hv::BitMatrix& shard = source.shard(s);
        const std::size_t resident =
            (shard.cols() * shard.words_per_column() +
             shard.rows() * shard.words_per_row() +
             shard.valid().word_count()) * sizeof(std::uint64_t);
        return detail::BuildShard{source.shard_begin(s), shard.rows(),
                                  shard.row_bits(0), resident};
      },
      config, pool, stats);
}

Index Index::build_impl(
    std::size_t n, std::size_t bits, std::size_t num_shards,
    const std::function<detail::BuildShard(std::size_t)>& load_shard,
    const Config& config, parallel::ThreadPool* pool, BuildStats* stats) {
  if (n > kMaxRows) {
    throw std::invalid_argument("ann::build: database too large");
  }
  if (config.sketch_bits == 0 || config.sketch_bits > kMaxSketchBits) {
    throw std::invalid_argument("ann::build: sketch_bits out of range");
  }
  if (!(config.rerank_fraction >= 0.0 && config.rerank_fraction <= 1.0)) {
    throw std::invalid_argument("ann::build: rerank_fraction must be in [0,1]");
  }
  obs::Span span("hv.ann.build");
  // One kernel-table load per build pass (the hot loops below run the
  // hoisted pointer, not a per-call simd::active()).
  const auto hamming = simd::active().hamming;
  const auto majority = simd::active().majority;

  const std::size_t words = (bits + 63) / 64;

  Index index;
  index.config_ = config;
  index.bits_ = bits;
  index.words_per_row_ = words;
  index.rows_ = n;

  // Resolve the sizing knobs against this database; the resolved values are
  // what serialize, so a reloaded index behaves identically.
  Config& c = index.config_;
  c.sketch_bits = std::min(c.sketch_bits, index.bits_);
  if (c.cells == 0) {
    c.cells = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(n))));
  }
  c.cells = std::clamp<std::size_t>(c.cells, 1, n);
  if (c.lloyd_sample == 0) c.lloyd_sample = n;
  index.sketch_words_ = (c.sketch_bits + 63) / 64;

  // Deterministic sketch positions: seeded sample without replacement,
  // sorted so sketch extraction walks each row monotonically.
  util::Rng position_rng(util::mix_seed(c.seed, kSketchSeedStream));
  std::vector<std::size_t> sampled =
      position_rng.sample_without_replacement(index.bits_, c.sketch_bits);
  std::sort(sampled.begin(), sampled.end());
  index.positions_.assign(sampled.begin(), sampled.end());

  // Build-side memory accounting: the high-water of (live working
  // containers + resident shard), checkpointed at every allocation step.
  BuildStats accounting;
  accounting.shards = num_shards;
  std::size_t shard_bytes = 0;  // currently resident shard
  const auto note_peak = [&](std::size_t live_bytes) {
    accounting.bytes_peak =
        std::max<std::uint64_t>(accounting.bytes_peak, live_bytes + shard_bytes);
  };
  const auto enter_shard = [&](std::size_t s) {
    const detail::BuildShard shard = load_shard(s);
    shard_bytes = shard.resident_bytes;
    accounting.shard_bytes_max =
        std::max<std::uint64_t>(accounting.shard_bytes_max, shard_bytes);
    return shard;
  };

  // Pass 1: one shard-by-shard sweep collects the evenly strided initial
  // centroids, the strided Lloyd sample, and the database fingerprint —
  // each a pure function of global row order, so the collected bytes are
  // invariant to where the shard boundaries fall.
  const std::size_t stride = (n + c.lloyd_sample - 1) / c.lloyd_sample;
  const std::size_t sample_count = (n + stride - 1) / stride;
  std::vector<std::uint64_t> centroids(c.cells * words);
  std::vector<std::uint64_t> sample(sample_count * words);
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  const auto eat = [&fp](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      fp ^= (value >> (8 * b)) & 0xffULL;
      fp *= 0x100000001b3ULL;
    }
  };
  eat(index.bits_);
  eat(n);
  std::size_t next_centroid = 0;
  std::size_t next_sample = 0;
  std::size_t seen = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const detail::BuildShard shard = enter_shard(s);
    if (shard.begin != seen || shard.rows == 0 || shard.words == nullptr) {
      throw std::invalid_argument(
          "ann::build_sharded: shards must be non-empty, contiguous and "
          "ascending");
    }
    note_peak((centroids.size() + sample.size()) * sizeof(std::uint64_t));
    const std::size_t end = shard.begin + shard.rows;
    for (std::size_t w = 0; w < shard.rows * words; ++w) eat(shard.words[w]);
    while (next_centroid < c.cells &&
           next_centroid * n / c.cells < end) {
      const std::size_t row = next_centroid * n / c.cells;
      std::copy_n(shard.words + (row - shard.begin) * words, words,
                  centroids.data() + next_centroid * words);
      ++next_centroid;
    }
    while (next_sample < sample_count && next_sample * stride < end) {
      const std::size_t row = next_sample * stride;
      std::copy_n(shard.words + (row - shard.begin) * words, words,
                  sample.data() + next_sample * words);
      ++next_sample;
    }
    seen = end;
  }
  if (seen != n) {
    throw std::invalid_argument(
        "ann::build_sharded: shards do not cover the database rows");
  }
  index.fingerprint_ = fp;

  // Nearest centroid of one row (ties -> lowest cell id).
  const auto nearest_cell = [&](const std::uint64_t* row,
                                std::size_t n_cells) -> std::size_t {
    std::size_t best_cell = 0;
    std::size_t best_distance = index.bits_ + 1;
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
      const std::size_t d = hamming(row, centroids.data() + cell * words, words);
      if (d < best_distance) {
        best_distance = d;
        best_cell = cell;
      }
    }
    return best_cell;
  };

  // Lloyd refinement over the collected sample. Assignments run over the
  // pool per row; the update counting-sorts the sample by cell and takes
  // each cell's new centroid as the word-parallel majority of its members,
  // over the pool per cell. Each cell writes only its own centroid, so the
  // result is thread-count-invariant by construction.
  {
    // Bits past `bits` in the last word stay zero whatever the rows carry.
    const std::uint64_t tail_mask =
        index.bits_ % 64 == 0 ? ~0ULL : (1ULL << (index.bits_ % 64)) - 1;
    std::vector<std::uint32_t> sample_cell(sample_count);
    std::vector<const std::uint64_t*> member_rows(sample_count);
    std::vector<std::size_t> cell_offsets(c.cells + 1);
    note_peak((centroids.size() + sample.size()) * sizeof(std::uint64_t) +
              sample_cell.size() * sizeof(std::uint32_t) +
              member_rows.size() * sizeof(const std::uint64_t*) +
              cell_offsets.size() * sizeof(std::size_t));
    for (std::size_t iter = 0; iter < c.lloyd_iterations; ++iter) {
      parallel::parallel_for(
          0, sample_count,
          [&](std::size_t s) {
            sample_cell[s] = static_cast<std::uint32_t>(
                nearest_cell(sample.data() + s * words, c.cells));
          },
          pool);
      std::fill(cell_offsets.begin(), cell_offsets.end(), 0);
      for (std::size_t s = 0; s < sample_count; ++s) {
        ++cell_offsets[sample_cell[s] + 1];
      }
      for (std::size_t cell = 0; cell < c.cells; ++cell) {
        cell_offsets[cell + 1] += cell_offsets[cell];
      }
      for (std::size_t s = 0; s < sample_count; ++s) {
        // Each cell's offset advances as a cursor to the next cell's start;
        // the loop below shifts the offsets back into place.
        member_rows[cell_offsets[sample_cell[s]]++] = sample.data() + s * words;
      }
      for (std::size_t cell = c.cells; cell > 0; --cell) {
        cell_offsets[cell] = cell_offsets[cell - 1];
      }
      cell_offsets[0] = 0;
      parallel::parallel_for(
          0, c.cells,
          [&](std::size_t cell) {
            const std::size_t size = cell_offsets[cell + 1] - cell_offsets[cell];
            if (size == 0) return;  // empty cell keeps its previous centroid
            // Majority with ties -> 1 (2 * count >= size), matching
            // hv::TiePolicy::kOne.
            std::uint64_t* centroid = centroids.data() + cell * words;
            majority(member_rows.data() + cell_offsets[cell], size, words,
                     centroid, /*tie_to_one=*/true);
            centroid[words - 1] &= tail_mask;
          },
          pool);
    }
  }
  sample.clear();
  sample.shrink_to_fit();

  // Pass 2: final assignment covers every row, one shard resident at a
  // time, then empty cells are compacted away (probing an empty cell would
  // waste a probe budget slot).
  std::vector<std::uint32_t> assignment(n);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const detail::BuildShard shard = enter_shard(s);
    note_peak(centroids.size() * sizeof(std::uint64_t) +
              assignment.size() * sizeof(std::uint32_t));
    parallel::parallel_for(
        0, shard.rows,
        [&](std::size_t r) {
          assignment[shard.begin + r] = static_cast<std::uint32_t>(
              nearest_cell(shard.words + r * words, c.cells));
        },
        pool);
  }
  std::vector<std::uint64_t> cell_sizes(c.cells);
  for (std::size_t i = 0; i < n; ++i) ++cell_sizes[assignment[i]];
  std::vector<std::uint32_t> remap(c.cells);
  std::size_t kept = 0;
  for (std::size_t cell = 0; cell < c.cells; ++cell) {
    remap[cell] = static_cast<std::uint32_t>(kept);
    if (cell_sizes[cell] != 0) {
      if (kept != cell) {
        std::copy_n(centroids.data() + cell * words, words,
                    centroids.data() + kept * words);
      }
      ++kept;
    }
  }
  centroids.resize(kept * words);
  index.centroids_ = std::move(centroids);
  c.cells = kept;
  if (c.nprobe == 0) {
    // Floor the expected candidate count (nprobe * rows / cells) at
    // kAutoProbeRowFloor rows: small databases probe most of their cells,
    // which is what the golden-dataset recall@1 >= 0.999 gate needs, while
    // large databases stay on the max(8, cells/8) sub-linear profile.
    const std::size_t floor_probes =
        (kAutoProbeRowFloor * c.cells + n - 1) / n;
    c.nprobe = std::max({std::size_t{8}, c.cells / 8, floor_probes});
  }
  c.nprobe = std::clamp<std::size_t>(c.nprobe, 1, c.cells);

  // Counting sort by (cell, row): rows ascend within each cell, the order
  // the rerank tie rule depends on.
  index.offsets_.assign(kept + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++index.offsets_[remap[assignment[i]] + 1];
  }
  for (std::size_t cell = 0; cell < kept; ++cell) {
    index.offsets_[cell + 1] += index.offsets_[cell];
  }
  index.members_.resize(n);
  {
    std::vector<std::uint64_t> cursor(index.offsets_.begin(),
                                      index.offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      index.members_[cursor[remap[assignment[i]]]++] = i;
    }
  }

  // Pass 3: sketches in member (cell-grouped) order, written straight into
  // their final slots while each shard is resident. Replaying the counting
  // sort's cursor walk in ascending global row order lands row i exactly
  // where members_ says it lives, so no row-ordered staging buffer (which
  // would break the one-shard memory bound) is ever allocated.
  index.sketches_.resize(n * index.sketch_words_);
  {
    std::vector<std::uint64_t> cursor(index.offsets_.begin(),
                                      index.offsets_.end() - 1);
    std::vector<std::uint64_t> slots;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const detail::BuildShard shard = enter_shard(s);
      slots.resize(shard.rows);
      for (std::size_t r = 0; r < shard.rows; ++r) {
        slots[r] = cursor[remap[assignment[shard.begin + r]]]++;
      }
      note_peak(index.centroids_.size() * sizeof(std::uint64_t) +
                assignment.size() * sizeof(std::uint32_t) +
                (index.offsets_.size() + index.members_.size() +
                 index.sketches_.size() + cursor.size() + slots.size()) *
                    sizeof(std::uint64_t));
      parallel::parallel_for(
          0, shard.rows,
          [&](std::size_t r) {
            index.sketch_row(shard.words + r * words,
                             index.sketches_.data() +
                                 slots[r] * index.sketch_words_);
          },
          pool);
    }
  }

  accounting.index_bytes = index.storage_bytes();
  // High-water gauge across all builds in this process (same pattern as
  // data.shard_bytes_peak).
  obs::Gauge& peak_gauge = obs::gauge("hv.ann.build_bytes_peak");
  if (static_cast<std::int64_t>(accounting.bytes_peak) > peak_gauge.value()) {
    peak_gauge.set(static_cast<std::int64_t>(accounting.bytes_peak));
  }
  if (stats != nullptr) *stats = accounting;
  return index;
}

void Index::check_database(const PackedHVs& database) const {
  if (empty()) throw std::logic_error("ann: index is empty");
  if (database.rows() != rows_ || database.bits() != bits_) {
    throw std::invalid_argument("ann: database shape does not match the index");
  }
  const std::uint64_t fp = fingerprint_words(
      database.row(0), rows_ * words_per_row_, bits_, rows_);
  if (fp != fingerprint_) {
    throw std::invalid_argument(
        "ann: database fingerprint mismatch (index was built over different "
        "vectors)");
  }
}

std::vector<Neighbor> Index::nearest(const PackedHVs& queries,
                                     const PackedHVs& database,
                                     const SearchOptions& options,
                                     SearchStats* stats) const {
  std::vector<std::vector<Neighbor>> lists =
      top_k(queries, database, 1, options, stats);
  std::vector<Neighbor> out;
  out.reserve(lists.size());
  for (const auto& list : lists) out.push_back(list.front());
  return out;
}

std::vector<std::vector<Neighbor>> Index::top_k(
    const PackedHVs& queries, const PackedHVs& database, std::size_t k,
    const SearchOptions& options, SearchStats* stats,
    std::vector<SearchStats>* per_query) const {
  if (k == 0) throw std::invalid_argument("ann: k must be >= 1");
  if (options.exact) {
    // Fallback contract: byte-identical to the exact tiled kernels.
    hv::SearchOptions exact_options;
    exact_options.exclude_same_index = options.exclude_same_index;
    exact_options.pool = options.pool;
    if (k == 1) {
      const std::vector<Neighbor> flat =
          nearest_neighbors(queries, database, exact_options);
      std::vector<std::vector<Neighbor>> out;
      out.reserve(flat.size());
      for (const Neighbor& n : flat) out.push_back({n});
      return out;
    }
    return top_k_neighbors(queries, database, k, exact_options);
  }

  if (empty()) throw std::logic_error("ann: index is empty");
  if (queries.empty()) throw std::invalid_argument("ann: empty queries");
  if (queries.bits() != bits_) {
    throw std::invalid_argument("ann: query dimensionality mismatch");
  }
  if (database.rows() != rows_ || database.bits() != bits_) {
    throw std::invalid_argument("ann: database shape does not match the index");
  }
  if (options.exclude_same_index && queries.rows() != rows_) {
    throw std::invalid_argument(
        "ann: exclude_same_index needs queries == database");
  }
  const std::size_t n_cells = cells();
  const std::size_t nprobe = std::clamp<std::size_t>(
      options.nprobe != 0 ? options.nprobe : config_.nprobe, 1, n_cells);
  const std::size_t words = words_per_row_;
  // Sketch distances lie in [0, sketch_bits]; the excluded row is parked one
  // past the last bucket so no threshold ever reaches it.
  const std::size_t max_sketch = config_.sketch_bits;
  const std::uint32_t excluded_mark = static_cast<std::uint32_t>(max_sketch + 1);
  const std::size_t row_radix_passes =
      (static_cast<std::size_t>(std::bit_width(rows_ - 1)) + kRowRadixBits - 1) /
      kRowRadixBits;

  std::vector<std::vector<Neighbor>> out(queries.rows());
  if (per_query != nullptr) per_query->assign(queries.rows(), SearchStats{});
  SearchStats totals;
  std::mutex totals_mutex;
  // One kernel-table load per call, shared by every chunk (the per-row loops
  // below never re-resolve the dispatch table).
  const simd::Kernels& kernels = simd::active();

  // Keeps `list` the k smallest neighbours by (distance, index), sorted.
  const auto offer = [k](std::vector<Neighbor>& list, const Neighbor& cand) {
    if (list.size() == k && !neighbor_less(cand, list.back())) return;
    list.insert(std::upper_bound(list.begin(), list.end(), cand, neighbor_less),
                cand);
    if (list.size() > k) list.pop_back();
  };

  parallel::parallel_for_chunks(
      0, queries.rows(),
      [&](std::size_t q_lo, std::size_t q_hi) {
        obs::Span span("hv.ann.chunk");
        const auto hamming = kernels.hamming;
        const auto sketch_scan = kernels.sketch_scan;
        SearchStats local;
        std::vector<std::uint64_t> cell_keys(n_cells);  // distance << 32 | cell
        std::vector<std::uint64_t> query_sketch(sketch_words_);
        std::vector<std::uint32_t> sketch_distance;     // probed rows, cell order
        std::vector<std::uint32_t> histogram(max_sketch + 1);
        std::vector<std::uint64_t> ties;
        // The block's rerank pairs, row << kQuerySlotBits | query slot.
        std::vector<std::uint64_t> pairs;
        std::vector<std::uint64_t> pairs_swap;
        std::vector<std::size_t> digit_counts;

        for (std::size_t b_lo = q_lo; b_lo < q_hi; b_lo += kQueryBlock) {
          const std::size_t b_hi = std::min(b_lo + kQueryBlock, q_hi);
          pairs.clear();
          for (std::size_t q = b_lo; q < b_hi; ++q) {
            const std::uint64_t* qrow = queries.row(q);
            SearchStats one;
            one.queries = 1;
            // 1. Rank the cells by exact centroid distance; the probe set is
            // the nprobe smallest (distance, cell id) keys.
            for (std::size_t cell = 0; cell < n_cells; ++cell) {
              cell_keys[cell] =
                  static_cast<std::uint64_t>(
                      hamming(qrow, centroids_.data() + cell * words, words))
                      << 32 |
                  cell;
            }
            one.word_ops += n_cells * words;
            if (nprobe < n_cells) {
              std::nth_element(cell_keys.begin(),
                               cell_keys.begin() +
                                   static_cast<std::ptrdiff_t>(nprobe - 1),
                               cell_keys.end());
            }

            // 2. Sketch-scan the probed cells into one buffer. Each cell's
            // sketches are one contiguous span, so the whole cell goes
            // through the batched sketch_scan kernel in one call.
            sketch_row(qrow, query_sketch.data());
            std::size_t scanned = 0;
            for (std::size_t p = 0; p < nprobe; ++p) {
              const std::size_t cell = cell_keys[p] & 0xffffffffULL;
              scanned += static_cast<std::size_t>(offsets_[cell + 1] -
                                                  offsets_[cell]);
            }
            sketch_distance.resize(scanned);
            std::fill(histogram.begin(), histogram.end(), 0U);
            std::size_t at = 0;
            std::size_t candidates = scanned;
            for (std::size_t p = 0; p < nprobe; ++p) {
              const std::size_t cell = cell_keys[p] & 0xffffffffULL;
              const std::uint64_t lo = offsets_[cell];
              const std::uint64_t hi = offsets_[cell + 1];
              const std::size_t span_rows = static_cast<std::size_t>(hi - lo);
              std::uint32_t* dist = sketch_distance.data() + at;
              sketch_scan(query_sketch.data(),
                          sketches_.data() + lo * sketch_words_, span_rows,
                          sketch_words_, dist);
              for (std::size_t i = 0; i < span_rows; ++i) ++histogram[dist[i]];
              if (options.exclude_same_index) {
                // Members ascend within a cell, so the query's own row is
                // found by binary search.
                const auto first = members_.begin() + static_cast<std::ptrdiff_t>(lo);
                const auto last = members_.begin() + static_cast<std::ptrdiff_t>(hi);
                const auto self = std::lower_bound(first, last, q);
                if (self != last && *self == q) {
                  std::uint32_t& d = dist[self - first];
                  --histogram[d];
                  d = excluded_mark;
                  --candidates;
                }
              }
              at += span_rows;
            }
            one.probes = nprobe;
            one.sketch_blocks = nprobe;
            one.candidates = candidates;
            one.word_ops += scanned * sketch_words_;

            if (candidates == 0) {
              // Degenerate probe set (e.g. leave-one-out removed the only
              // member): answer exactly over the whole database.
              std::vector<Neighbor>& result = out[q];
              result.reserve(std::min(k, rows_));
              for (std::size_t j = 0; j < rows_; ++j) {
                if (options.exclude_same_index && j == q) continue;
                offer(result, Neighbor{j, hamming(qrow, database.row(j), words)});
              }
              one.reranked = rows_;
              one.word_ops += rows_ * words;
            } else {
              // 3. The rerank set is the `rerank` smallest (sketch distance,
              // row) candidates: every row below the threshold distance,
              // then the lowest rows among the ties at it.
              std::size_t rerank = std::max(
                  {config_.min_rerank, k,
                   static_cast<std::size_t>(std::ceil(
                       config_.rerank_fraction *
                       static_cast<double>(candidates)))});
              rerank = std::min(rerank, candidates);
              std::size_t threshold = 0;
              std::size_t below = 0;
              while (below + histogram[threshold] < rerank) {
                below += histogram[threshold++];
              }
              const std::size_t slot = q - b_lo;
              // Branch-free emission: every member is written, and the
              // cursor only advances past the ones that qualify.
              std::size_t n_pairs = pairs.size();
              pairs.resize(n_pairs + scanned);
              ties.resize(scanned);
              std::size_t n_ties = 0;
              at = 0;
              for (std::size_t p = 0; p < nprobe; ++p) {
                const std::size_t cell = cell_keys[p] & 0xffffffffULL;
                for (std::uint64_t m = offsets_[cell]; m < offsets_[cell + 1];
                     ++m) {
                  const std::uint32_t d = sketch_distance[at++];
                  const std::uint64_t row = members_[m];
                  pairs[n_pairs] = row << kQuerySlotBits | slot;
                  n_pairs += d < threshold ? 1 : 0;
                  ties[n_ties] = row;
                  n_ties += d == threshold ? 1 : 0;
                }
              }
              const std::size_t need = rerank - below;
              if (need < n_ties) {
                std::nth_element(ties.begin(),
                                 ties.begin() + static_cast<std::ptrdiff_t>(need),
                                 ties.begin() + static_cast<std::ptrdiff_t>(n_ties));
              }
              for (std::size_t i = 0; i < need; ++i) {
                pairs[n_pairs++] = ties[i] << kQuerySlotBits | slot;
              }
              pairs.resize(n_pairs);
              one.reranked = rerank;
              one.word_ops += rerank * words;
              out[q].reserve(std::min(k, rerank));
            }
            local.queries += one.queries;
            local.probes += one.probes;
            local.candidates += one.candidates;
            local.reranked += one.reranked;
            local.word_ops += one.word_ops;
            local.sketch_blocks += one.sketch_blocks;
            if (per_query != nullptr) (*per_query)[q] = one;
          }

          // 4. Order the block's pairs by database row.
          sort_pairs_by_row(pairs, pairs_swap, digit_counts, row_radix_passes);

          // 5. Exact rerank: each database row is read once and scored
          // against every query of the block that selected it, while the
          // next row's words are prefetched.
          for (std::size_t i = 0; i < pairs.size();) {
            const std::uint64_t row = pairs[i] >> kQuerySlotBits;
            std::size_t end = i + 1;
            while (end < pairs.size() && pairs[end] >> kQuerySlotBits == row) {
              ++end;
            }
            if (end < pairs.size()) {
              const std::uint64_t* next = database.row(pairs[end] >> kQuerySlotBits);
              for (std::size_t w = 0; w < words; w += 8) __builtin_prefetch(next + w);
            }
            const std::uint64_t* drow = database.row(row);
            for (; i < end; ++i) {
              const std::size_t q = b_lo + (pairs[i] & (kQueryBlock - 1));
              offer(out[q], Neighbor{row, hamming(queries.row(q), drow, words)});
            }
          }
        }
        if (obs::enabled()) {
          AnnMetrics& metrics = AnnMetrics::get();
          metrics.queries.add(local.queries);
          metrics.probes.add(local.probes);
          metrics.candidates.add(local.candidates);
          metrics.reranked.add(local.reranked);
          metrics.word_ops.add(local.word_ops);
          metrics.sketch_blocks.add(local.sketch_blocks);
        }
        const std::lock_guard<std::mutex> lock(totals_mutex);
        totals.queries += local.queries;
        totals.probes += local.probes;
        totals.candidates += local.candidates;
        totals.reranked += local.reranked;
        totals.word_ops += local.word_ops;
        totals.sketch_blocks += local.sketch_blocks;
      },
      options.pool);

  if (stats != nullptr) *stats = totals;
  return out;
}

void Index::save(std::ostream& out) const {
  if (empty()) throw std::logic_error("ann: save of an empty index");
  util::serde::Writer w(out);
  w.tag("hv.ann").tag("v2").nl();
  w.u64(bits_).u64(rows_).u64(config_.sketch_bits).u64(config_.cells)
      .u64(config_.nprobe).nl();
  w.u64(config_.lloyd_iterations).u64(config_.lloyd_sample)
      .f64(config_.rerank_fraction).u64(config_.min_rerank)
      .u64(config_.seed).nl();
  w.u64(fingerprint_).nl();
  w.word_block(centroids_).nl();
  w.vec_u64(offsets_).nl();
  w.vec_u64(members_).nl();
  w.word_block(sketches_).nl();
}

Index Index::load(std::istream& in) {
  util::serde::Reader r(in, "load hv.ann");
  r.expect("hv.ann", "index tag");
  r.expect_version("v2");
  Index index;
  index.bits_ = r.count("bits", 1ULL << 26);
  index.rows_ = r.count("rows", kMaxRows);
  index.config_.sketch_bits = r.count("sketch_bits", kMaxSketchBits);
  index.config_.cells = r.count("cells", kMaxRows);
  index.config_.nprobe = r.count("nprobe", kMaxRows);
  index.config_.lloyd_iterations = r.count("lloyd_iterations", 1ULL << 16);
  index.config_.lloyd_sample = r.count("lloyd_sample", kMaxRows);
  index.config_.rerank_fraction = r.f64("rerank_fraction");
  index.config_.min_rerank = r.count("min_rerank", kMaxRows);
  index.config_.seed = r.u64("seed");
  index.fingerprint_ = r.u64("fingerprint");

  if (index.bits_ == 0 || index.rows_ == 0) {
    throw r.error("empty index");
  }
  const Config& c = index.config_;
  if (c.sketch_bits == 0 || c.sketch_bits > index.bits_) {
    throw r.error("sketch_bits out of range");
  }
  if (c.cells == 0 || c.cells > index.rows_) {
    throw r.error("cell count out of range");
  }
  if (c.nprobe == 0 || c.nprobe > c.cells) {
    throw r.error("nprobe out of range");
  }
  if (!(c.rerank_fraction >= 0.0 && c.rerank_fraction <= 1.0)) {
    throw r.error("rerank_fraction out of range");
  }
  index.words_per_row_ = (index.bits_ + 63) / 64;
  index.sketch_words_ = (c.sketch_bits + 63) / 64;
  // The word blocks are sized from these fields, so cap them before
  // allocating (as read_packed caps its rows).
  if (c.cells * index.words_per_row_ > kMaxPackedWords ||
      index.rows_ * index.sketch_words_ > kMaxPackedWords) {
    throw r.error("centroid or sketch words out of range");
  }

  index.centroids_.resize(c.cells * index.words_per_row_);
  r.word_block("centroids", index.centroids_);
  if (padding_bits_set(index.centroids_, index.bits_)) {
    throw r.error("nonzero padding bits in a centroid");
  }
  index.offsets_ = r.vec_u64("cell offsets", c.cells + 1);
  if (index.offsets_.size() != c.cells + 1 || index.offsets_.front() != 0 ||
      index.offsets_.back() != index.rows_) {
    throw r.error("bad cell offsets");
  }
  for (std::size_t cell = 0; cell < c.cells; ++cell) {
    if (index.offsets_[cell + 1] <= index.offsets_[cell]) {
      throw r.error("cell offsets must be strictly increasing (no empty cells)");
    }
  }
  index.members_ = r.vec_u64("cell members", index.rows_);
  if (index.members_.size() != index.rows_) {
    throw r.error("member count mismatch");
  }
  std::vector<bool> seen(index.rows_, false);
  for (std::size_t cell = 0; cell < c.cells; ++cell) {
    for (std::uint64_t m = index.offsets_[cell]; m < index.offsets_[cell + 1];
         ++m) {
      const std::uint64_t row = index.members_[m];
      if (row >= index.rows_ || seen[row]) {
        throw r.error("cell members are not a permutation of the rows");
      }
      seen[row] = true;
      if (m > index.offsets_[cell] && index.members_[m - 1] >= row) {
        throw r.error("cell members must ascend within a cell");
      }
    }
  }
  index.sketches_.resize(index.rows_ * index.sketch_words_);
  r.word_block("sketches", index.sketches_);
  if (padding_bits_set(index.sketches_, c.sketch_bits)) {
    throw r.error("nonzero padding bits in a sketch");
  }

  // Sketch positions are a pure function of (seed, bits, sketch_bits);
  // recomputing them keeps the serialized body small and tamper-evident.
  util::Rng position_rng(util::mix_seed(c.seed, kSketchSeedStream));
  std::vector<std::size_t> sampled =
      position_rng.sample_without_replacement(index.bits_, c.sketch_bits);
  std::sort(sampled.begin(), sampled.end());
  index.positions_.assign(sampled.begin(), sampled.end());
  return index;
}

}  // namespace hdc::hv::ann
