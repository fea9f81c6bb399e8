// Feature-to-hypervector encoders, implementing Section II-B of the paper.
//
// * LevelEncoder — the paper's "linear encoding" for continuous features:
//   a random balanced seed represents min(V); a value t is encoded by
//   flipping x = k*(t-min) / (2*(max-min)) bits of the seed, half of them
//   0->1 and half 1->0, so that max(V) lands exactly orthogonal to min(V)
//   (normalised distance 0.5) and distance grows linearly in |t1 - t2|.
// * BinaryEncoder — for yes/no features: a random seed represents 0 and a
//   vector orthogonal to it (k/2 bits flipped, balanced) represents 1.
// * CategoricalEncoder — one independent random vector per category.
// * RecordEncoder — bundles one row's feature vectors with bitwise majority
//   voting (ties -> 1 by default), producing the "patient hypervector".
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/bitvector.hpp"
#include "hv/ops.hpp"
#include "util/rng.hpp"

namespace hdc::hv {

/// Interface for encoding one scalar feature value into a hypervector.
class FeatureEncoder {
 public:
  virtual ~FeatureEncoder() = default;

  /// Dimensionality of produced vectors.
  [[nodiscard]] virtual std::size_t bits() const noexcept = 0;

  /// Encode a single value. Implementations must be deterministic.
  [[nodiscard]] virtual BitVector encode(double value) const = 0;

  /// Encode into an existing vector, reusing its storage when possible (the
  /// batch-encoding hot path). Semantically identical to `out = encode(v)`.
  virtual void encode_into(double value, BitVector& out) const { out = encode(value); }

  /// Quantisation key for memoisation: two values with the same key encode
  /// to the same hypervector, and the number of distinct keys is small
  /// enough to cache (e.g. the LevelEncoder's flip count, which is
  /// quantised to even integers — at most bits/4 + 1 distinct vectors).
  /// nullopt disables caching for this encoder.
  [[nodiscard]] virtual std::optional<std::uint64_t> memo_key(double value) const {
    (void)value;
    return std::nullopt;
  }
};

/// The paper's linear (level) encoding for continuous features.
///
/// The flip schedule is *nested*: the bits flipped for a smaller value are a
/// subset of those flipped for a larger value, which is what makes the
/// distance between two encodings exactly proportional to the difference of
/// the values: hamming(enc(t1), enc(t2)) = |x(t1) - x(t2)|.
class LevelEncoder final : public FeatureEncoder {
 public:
  /// `bits` must be even. [lo, hi] is the value range seen in training
  /// (min(V), max(V)); values outside are clamped (the paper maps anything
  /// <= min(V) to the seed vector).
  LevelEncoder(std::size_t bits, double lo, double hi, std::uint64_t seed);

  [[nodiscard]] std::size_t bits() const noexcept override { return seed_vector_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }

  /// Number of bits that encode(value) differs from the seed vector.
  [[nodiscard]] std::size_t flip_count(double value) const noexcept;

  [[nodiscard]] BitVector encode(double value) const override;
  void encode_into(double value, BitVector& out) const override;

  /// The flip count is the quantised level index: equal counts mean equal
  /// encodings, and there are at most bits/4 + 1 distinct values.
  [[nodiscard]] std::optional<std::uint64_t> memo_key(double value) const override {
    return flip_count(value);
  }

  /// The hypervector representing min(V).
  [[nodiscard]] const BitVector& seed_vector() const noexcept { return seed_vector_; }

 private:
  /// Steps covered by one precomputed cumulative flip mask: encode(t) is
  /// seed XOR checkpoint[half/stride], then at most stride-1 residual
  /// two-bit flips instead of one set() per flipped bit.
  static constexpr std::size_t kCheckpointStride = 64;

  double lo_;
  double hi_;
  BitVector seed_vector_;
  // Fixed random orderings of the seed's zero- and one-positions; encode(t)
  // flips prefixes of these lists.
  std::vector<std::uint32_t> zero_order_;
  std::vector<std::uint32_t> one_order_;
  // Cumulative word-level flip masks for prefixes of length c*stride,
  // stored back-to-back (words_per_mask_ words each; see encode_into).
  std::vector<std::uint64_t> checkpoint_masks_;
  std::size_t words_per_mask_ = 0;
};

/// Binary (yes/no) features: value 0 -> seed, value 1 -> orthogonal vector.
/// Any value >= 0.5 is treated as 1.
class BinaryEncoder final : public FeatureEncoder {
 public:
  BinaryEncoder(std::size_t bits, std::uint64_t seed);

  [[nodiscard]] std::size_t bits() const noexcept override { return zero_.size(); }
  [[nodiscard]] BitVector encode(double value) const override;
  void encode_into(double value, BitVector& out) const override {
    out = value >= 0.5 ? one_ : zero_;
  }
  [[nodiscard]] std::optional<std::uint64_t> memo_key(double value) const override {
    return value >= 0.5 ? 1 : 0;
  }

  [[nodiscard]] const BitVector& zero_vector() const noexcept { return zero_; }
  [[nodiscard]] const BitVector& one_vector() const noexcept { return one_; }

 private:
  BitVector zero_;
  BitVector one_;
};

/// Unordered categorical features: each distinct integer category gets an
/// independent random vector. Values are rounded to nearest integer.
///
/// Vectors are generated once per category and memoised in a small item
/// memory (category -> hypervector); contents still depend only on
/// (seed, category), so outputs are bit-identical to regenerating.
class CategoricalEncoder final : public FeatureEncoder {
 public:
  CategoricalEncoder(std::size_t bits, std::uint64_t seed);

  [[nodiscard]] std::size_t bits() const noexcept override { return bits_; }
  [[nodiscard]] BitVector encode(double value) const override;
  void encode_into(double value, BitVector& out) const override;
  [[nodiscard]] std::optional<std::uint64_t> memo_key(double value) const override;

 private:
  /// Vector for a category, generated and cached on first use. The returned
  /// reference stays valid for the encoder's lifetime (node-based map).
  const BitVector& item(long long category) const;

  std::size_t bits_;
  std::uint64_t seed_;
  mutable std::mutex mutex_;  // encode() is called from batch worker threads
  mutable std::unordered_map<long long, BitVector> item_memory_;
};

/// Declared feature kinds used when building a RecordEncoder from a dataset.
enum class FeatureKind { kLinear, kBinary, kCategorical };

/// Encodes a full record (one patient) by bundling its per-feature vectors
/// with bitwise majority voting.
class RecordEncoder {
 public:
  RecordEncoder(std::size_t bits, TiePolicy tie = TiePolicy::kOne)
      : bits_(bits), tie_(tie) {}

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t feature_count() const noexcept { return encoders_.size(); }

  /// Append a feature encoder; encoders are applied positionally to rows.
  void add_feature(std::unique_ptr<FeatureEncoder> encoder);

  /// Reusable per-thread buffers for the batch-encoding hot path. The memo
  /// caches quantised per-feature vectors (keyed by FeatureEncoder::
  /// memo_key), so repeated values skip re-encoding entirely; being
  /// per-scratch keeps the hot path lock-free and thread-safe.
  struct Scratch {
    std::vector<BitVector> features;
    std::vector<std::unordered_map<std::uint64_t, BitVector>> memo;
    std::vector<const BitVector*> feature_ptrs;
  };

  /// Encode one row (size must equal feature_count()).
  [[nodiscard]] BitVector encode(std::span<const double> row) const;

  /// Encode one row reusing `scratch` across calls (no per-row allocation of
  /// the feature-vector block). Identical output to encode(row).
  [[nodiscard]] BitVector encode(std::span<const double> row, Scratch& scratch) const;

  /// Per-feature encoder access (for introspection / tests).
  [[nodiscard]] const FeatureEncoder& feature(std::size_t i) const {
    return *encoders_.at(i);
  }

 private:
  std::size_t bits_;
  TiePolicy tie_;
  std::vector<std::unique_ptr<FeatureEncoder>> encoders_;
};

}  // namespace hdc::hv
