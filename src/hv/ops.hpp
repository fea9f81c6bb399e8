// HDC vector-space operations: bundling (majority vote) and binding.
#pragma once

#include <span>
#include <vector>

#include "hv/bitvector.hpp"
#include "util/rng.hpp"

namespace hdc::hv {

/// How bitwise majority voting resolves ties (even number of inputs with an
/// equal count of ones and zeros at a bit position).
enum class TiePolicy {
  kOne,     // paper's rule: ties become 1
  kZero,    // ties become 0
  kRandom,  // each tie resolved with an unbiased coin (needs an Rng)
};

/// Bitwise majority vote across vectors ("bundling"). All inputs must share
/// one dimensionality; at least one input is required.
///
/// This is the paper's patient-encoding step: the per-feature hypervectors of
/// one subject are combined into a single patient hypervector.
[[nodiscard]] BitVector majority(std::span<const BitVector> inputs,
                                 TiePolicy tie = TiePolicy::kOne,
                                 util::Rng* rng = nullptr);

/// Pointer form of majority(): inputs are non-null BitVector pointers. Used
/// by the encoding hot path, where per-feature vectors may live in a memo
/// cache rather than a contiguous array. Identical results.
[[nodiscard]] BitVector majority(std::span<const BitVector* const> inputs,
                                 TiePolicy tie = TiePolicy::kOne,
                                 util::Rng* rng = nullptr);

/// XOR binding of two vectors (role-filler binding). Self-inverse.
[[nodiscard]] BitVector bind(const BitVector& a, const BitVector& b);

/// Sum per-bit counts of ones across vectors (the accumulator form of
/// bundling, useful for class prototypes built incrementally).
class BitAccumulator {
 public:
  explicit BitAccumulator(std::size_t bits) : counts_(bits, 0), total_(0) {}

  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  void add(const BitVector& v);
  /// Remove a previously added vector (for leave-one-out prototypes).
  void remove(const BitVector& v);

  /// Threshold the counts at total/2 into a binary vector.
  [[nodiscard]] BitVector to_majority(TiePolicy tie = TiePolicy::kOne,
                                      util::Rng* rng = nullptr) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::size_t total_;
};

}  // namespace hdc::hv
