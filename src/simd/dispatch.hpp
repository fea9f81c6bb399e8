// Runtime-dispatched SIMD kernel layer for the bit-level hot loops.
//
// The paper's pitch is that binary HDC reduces classification to XOR,
// popcount, and majority voting — operations a CPU executes word-parallel.
// This module takes that one step further: the batch kernels behind every
// hot path live in per-tier translation units compiled with the matching
// ISA flags, and a process-wide dispatch table picks the best tier the CPU
// supports at runtime. The kernels are Hamming reduction, bulk and masked
// popcounts, word-parallel majority bundling, the block Hamming scan behind
// the ANN sketch filter, the two select kernels that train logistic
// regression straight from packed rows (each 0/1 entry read as one of two
// per-column doubles), and the zero-bit column sums behind the LGBM split
// search (a masked add per row, so untouched columns keep their bits):
//
//   * kScalar — portable std::popcount loops (always compiled, the
//     bit-exactness reference for every other tier);
//   * kAvx2   — 256-bit Harley–Seal carry-save popcount (nibble-LUT +
//     PSADBW digit counting) and a bit-sliced AVX2 majority;
//   * kAvx512 — VPOPCNTDQ hardware popcount with masked tail loads and a
//     ternary-logic bit-sliced majority.
//
// Every tier is bit-exact with kScalar (property-tested across widths that
// are not a multiple of any vector register), so dispatch never affects
// results — only throughput. For the floating-point kernels that rests on
// one rule: no fused multiply-add. Each term is a rounded multiply followed
// by a rounded add, in the documented order, so the SIMD tier translation
// units are compiled with -ffp-contract=off (AVX-512F implies FMA, and a
// contracted kernel changes logistic-regression weights). Selection order
// and overrides:
//
//   1. `HDC_SIMD=scalar|avx2|avx512` environment variable (read once at
//      first use; unsupported or unknown values log a warning and fall back
//      to auto-detection);
//   2. `set_tier()` — programmatic override for tests and benches;
//   3. auto-detection: the highest tier that is both compiled into the
//      binary (see HDC_DISABLE_SIMD in CMake) and supported by the CPU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace hdc::simd {

/// Kernel implementations, from portable baseline to widest vector ISA.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Batch kernel table. All function pointers are always non-null and all
/// tiers produce bit-identical results; only throughput differs.
struct Kernels {
  /// Hamming distance: popcount(a XOR b) over `words` 64-bit words.
  std::size_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept;

  /// Bulk popcount over `words` 64-bit words.
  std::size_t (*popcount)(const std::uint64_t* words, std::size_t n) noexcept;

  /// Intersection popcount: popcount(a AND b) over `words` 64-bit words.
  /// The node-mask × column-bitplane reduction behind the packed ML path.
  std::size_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept;

  /// Masked-complement popcount: popcount(NOT a AND b) over `words` words —
  /// counts rows of `b` whose column bit in `a` is clear, so one column
  /// plane serves both sides of a binary split without a negated copy.
  std::size_t (*andnot_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words) noexcept;

  /// Word-parallel majority vote across `n` rows of `words` words each:
  /// out bit = 1 where the column's ones-count is > n/2, plus (when `n` is
  /// even and `tie_to_one`) where it equals exactly n/2. Rows may alias out
  /// only if out is not written before the row is fully consumed — callers
  /// must pass a distinct output buffer.
  void (*majority)(const std::uint64_t* const* rows, std::size_t n,
                   std::size_t words, std::uint64_t* out,
                   bool tie_to_one) noexcept;

  /// Block Hamming scan: out[i] = popcount(query XOR block[i*words ..]) for
  /// `n` contiguous rows of `words` words each (`words >= 1`). The batched
  /// form of calling `hamming` per row — the query words load once and
  /// several short rows share each vector pass, which is where the ANN
  /// sketch filter (4-word rows) earns its throughput. Distances fit u32
  /// because rows are at most 1024 bits in every caller.
  void (*sketch_scan)(const std::uint64_t* query, const std::uint64_t* block,
                      std::size_t n, std::size_t words,
                      std::uint32_t* out) noexcept;

  /// Blocked logits over bit-packed rows: `rows` holds `nrows` (1 to
  /// kSelectMaxRows) contiguous rows of ceil(cols/64) words, and
  ///   out[k] = bias + sum_j w[j] * (bit_kj ? z1[j] : z0[j])
  /// with j ascending, each term a rounded multiply then a rounded add —
  /// per row the same chain as a serial dot product over the expanded
  /// doubles. Bits past `cols` are ignored.
  void (*select_dot)(const std::uint64_t* rows, std::size_t nrows,
                     std::size_t cols, const double* z0, const double* z1,
                     const double* w, double bias, double* out) noexcept;

  /// Blocked gradient update over the same row layout: for every column j,
  ///   grad[j] = grad[j] + coef[k] * (bit_kj ? z1[j] : z0[j])
  /// applied for k = 0, 1, ..., nrows-1 in that order (multiply, then add).
  void (*select_axpy)(const std::uint64_t* rows, std::size_t nrows,
                      std::size_t cols, const double* z0, const double* z1,
                      const double* coef, double* grad) noexcept;

  /// Per-column sums over the zero bits of selected rows. `base` holds
  /// row-major packed rows of `words_per_row` words; for k = 0, 1, ...,
  /// nrows-1 in that order and every column j < cols whose bit is 0 in row
  /// rows[k],
  ///   sum_a[j] = sum_a[j] + a[k],   sum_b[j] = sum_b[j] + b[k].
  /// Columns whose bit is 1 keep their exact value, so each column takes
  /// the same rounded adds, in the same order, as a serial loop over its
  /// zero-bit rows. Bits past `cols` are ignored. The left-side gradient
  /// sums of every binary column in one row-major pass (LGBM split search).
  void (*zero_bit_sums)(const std::uint64_t* base, std::size_t words_per_row,
                        const std::uint32_t* rows, std::size_t nrows,
                        std::size_t cols, const double* a, const double* b,
                        double* sum_a, double* sum_b) noexcept;
};

/// Largest row block select_dot/select_axpy accept.
inline constexpr std::size_t kSelectMaxRows = 16;

/// Lower-case tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Inverse of tier_name(); nullopt on anything else.
[[nodiscard]] std::optional<Tier> parse_tier(std::string_view name) noexcept;

/// True when the tier's translation unit is compiled into this binary.
/// kScalar is always compiled; SIMD tiers depend on compiler support and
/// the HDC_DISABLE_SIMD build option.
[[nodiscard]] bool tier_compiled(Tier tier) noexcept;

/// True when the tier is compiled AND the running CPU supports its ISA.
[[nodiscard]] bool tier_supported(Tier tier) noexcept;

/// All supported tiers in ascending order (always starts with kScalar).
[[nodiscard]] std::vector<Tier> supported_tiers();

/// Kernel table for a specific tier. Throws std::invalid_argument when the
/// tier is not supported on this machine/binary.
[[nodiscard]] const Kernels& kernels(Tier tier);

/// The currently selected tier / kernel table. Initialised on first use
/// from HDC_SIMD (if set and supported) or auto-detection.
[[nodiscard]] Tier active_tier() noexcept;
[[nodiscard]] const Kernels& active() noexcept;

/// Force a tier for this process (tests, benches, reproducibility
/// debugging). Throws std::invalid_argument when unsupported. Not intended
/// to race with in-flight kernels: callers switch tiers between runs.
void set_tier(Tier tier);

/// Drop any set_tier()/HDC_SIMD override and return to auto-detection.
void reset_tier() noexcept;

}  // namespace hdc::simd
