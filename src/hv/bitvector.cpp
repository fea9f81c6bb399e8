#include "hv/bitvector.hpp"

#include <bit>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace hdc::hv {

void BitVector::check_same_size(const BitVector& other) const {
  if (bits_ != other.bits_) {
    throw std::invalid_argument("BitVector: dimensionality mismatch (" +
                                std::to_string(bits_) + " vs " +
                                std::to_string(other.bits_) + ")");
  }
}

void BitVector::clear_padding() noexcept {
  const std::size_t tail = bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1ULL;
  }
}

std::size_t BitVector::popcount() const noexcept {
  return simd::active().popcount(words_.data(), words_.size());
}

std::size_t BitVector::hamming(const BitVector& other) const {
  check_same_size(other);
  return simd::active().hamming(words_.data(), other.words_.data(), words_.size());
}

BitVector& BitVector::operator^=(const BitVector& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVector BitVector::rotated(std::size_t k) const {
  BitVector out(bits_);
  if (bits_ == 0) return out;
  k %= bits_;
  // Bitwise implementation; permutation is not on any hot path.
  for (std::size_t i = 0; i < bits_; ++i) {
    if (get(i)) out.set((i + k) % bits_, true);
  }
  return out;
}

BitVector BitVector::random(std::size_t bits, util::Rng& rng) {
  BitVector out(bits);
  for (std::uint64_t& w : out.words_) w = rng();
  out.clear_padding();
  return out;
}

BitVector BitVector::random_balanced(std::size_t bits, util::Rng& rng) {
  if (bits % 2 != 0) throw std::invalid_argument("BitVector: odd size for balanced seed");
  BitVector out(bits);
  // Floyd's algorithm would need a set; with bits/2 ones a partial
  // Fisher-Yates over indices is simpler and still O(bits).
  for (const std::size_t i : rng.sample_without_replacement(bits, bits / 2)) {
    out.set(i, true);
  }
  return out;
}

BitVector BitVector::with_flipped(std::size_t flip_zeros, std::size_t flip_ones,
                                  util::Rng& rng) const {
  const std::size_t zeros = bits_ - popcount();
  const std::size_t ones = popcount();
  if (flip_zeros > zeros || flip_ones > ones) {
    throw std::invalid_argument("BitVector: not enough bits to flip");
  }
  // Collect positions of zeros and ones, then choose subsets to flip.
  std::vector<std::size_t> zero_pos;
  std::vector<std::size_t> one_pos;
  zero_pos.reserve(zeros);
  one_pos.reserve(ones);
  for (std::size_t i = 0; i < bits_; ++i) {
    (get(i) ? one_pos : zero_pos).push_back(i);
  }
  BitVector out = *this;
  for (const std::size_t j : rng.sample_without_replacement(zero_pos.size(), flip_zeros)) {
    out.set(zero_pos[j], true);
  }
  for (const std::size_t j : rng.sample_without_replacement(one_pos.size(), flip_ones)) {
    out.set(one_pos[j], false);
  }
  return out;
}

std::string BitVector::to_string(std::size_t limit) const {
  const std::size_t n = std::min(limit, bits_);
  std::string s;
  s.reserve(n + 3);
  for (std::size_t i = 0; i < n; ++i) s.push_back(get(i) ? '1' : '0');
  if (n < bits_) s += "...";
  return s;
}

std::vector<double> BitVector::to_doubles() const {
  std::vector<double> out(bits_);
  for (std::size_t i = 0; i < bits_; ++i) out[i] = get(i) ? 1.0 : 0.0;
  return out;
}

}  // namespace hdc::hv
