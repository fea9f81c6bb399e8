// Bit-packed binary hypervector.
//
// The paper uses dense binary hypervectors of dimensionality 10,000. We pack
// bits into 64-bit words so that Hamming distance is a word-wise XOR +
// popcount, exploiting the bit-level parallelism the paper calls out as the
// reason for choosing binary hypervectors on Von Neumann hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hdc::hv {

class BitVector {
 public:
  BitVector() = default;

  /// All-zero vector of `bits` dimensions.
  explicit BitVector(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0ULL) {}

  /// Number of dimensions.
  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }

  /// Raw 64-bit words (trailing bits of the last word are always zero).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  /// Mutable word storage for kernel code (hv/ops, hv/search). Writers must
  /// keep the trailing padding bits of the last word zero.
  [[nodiscard]] std::uint64_t* word_data() noexcept { return words_.data(); }

  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) noexcept { words_[i >> 6] ^= 1ULL << (i & 63); }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Hamming distance (number of differing bits). Requires equal size.
  [[nodiscard]] std::size_t hamming(const BitVector& other) const;

  /// Normalised Hamming distance in [0, 1].
  [[nodiscard]] double hamming_fraction(const BitVector& other) const {
    return bits_ == 0 ? 0.0
                      : static_cast<double>(hamming(other)) / static_cast<double>(bits_);
  }

  /// In-place XOR (the HDC "bind" operation). Requires equal size.
  BitVector& operator^=(const BitVector& other);
  /// In-place OR / AND, used by some bundling variants.
  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);

  [[nodiscard]] friend BitVector operator^(BitVector a, const BitVector& b) {
    a ^= b;
    return a;
  }

  /// Cyclic rotation by k positions (the HDC "permute" operation).
  [[nodiscard]] BitVector rotated(std::size_t k) const;

  bool operator==(const BitVector& other) const noexcept = default;

  /// Uniformly random vector: each bit i.i.d. Bernoulli(0.5).
  [[nodiscard]] static BitVector random(std::size_t bits, util::Rng& rng);

  /// Exactly balanced random seed: bits/2 ones (bits must be even), the
  /// paper's "partially dense" seed.
  [[nodiscard]] static BitVector random_balanced(std::size_t bits, util::Rng& rng);

  /// Copy with `flip_zeros` randomly chosen 0-bits set and `flip_ones`
  /// randomly chosen 1-bits cleared. This is the primitive behind the
  /// paper's linear encoding ("flip an equal x number of 0 and 1 bits").
  [[nodiscard]] BitVector with_flipped(std::size_t flip_zeros, std::size_t flip_ones,
                                       util::Rng& rng) const;

  /// "0101..." debug rendering of the first `limit` bits.
  [[nodiscard]] std::string to_string(std::size_t limit = 64) const;

  /// Expand to a float vector of {0,1} values — used when feeding
  /// hypervectors into the ML / NN substrates.
  [[nodiscard]] std::vector<double> to_doubles() const;

 private:
  void check_same_size(const BitVector& other) const;
  void clear_padding() noexcept;

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hdc::hv
