#include "hv/ops.hpp"

#include <cstdint>
#include <stdexcept>

#include "simd/dispatch.hpp"

namespace hdc::hv {

namespace {

void check_inputs(std::span<const BitVector> inputs) {
  if (inputs.empty()) throw std::invalid_argument("majority: no inputs");
  const std::size_t d = inputs.front().size();
  for (const BitVector& v : inputs) {
    if (v.size() != d) throw std::invalid_argument("majority: dimensionality mismatch");
  }
}

void check_inputs(std::span<const BitVector* const> inputs) {
  if (inputs.empty()) throw std::invalid_argument("majority: no inputs");
  for (const BitVector* v : inputs) {
    if (v == nullptr) throw std::invalid_argument("majority: null input");
  }
  const std::size_t d = inputs.front()->size();
  for (const BitVector* v : inputs) {
    if (v->size() != d) throw std::invalid_argument("majority: dimensionality mismatch");
  }
}

bool resolve_tie(TiePolicy tie, util::Rng* rng) {
  switch (tie) {
    case TiePolicy::kOne: return true;
    case TiePolicy::kZero: return false;
    case TiePolicy::kRandom:
      if (rng == nullptr) {
        throw std::invalid_argument("majority: TiePolicy::kRandom needs an Rng");
      }
      return rng->bernoulli(0.5);
  }
  return true;
}

/// Word-parallel majority through the dispatch-tier kernel (bit-sliced
/// ripple-carry counters; see src/simd). Padding columns have count 0, which
/// is below any strict threshold, so trailing bits stay zero.
BitVector majority_kernel(const std::uint64_t* const* rows, std::size_t n,
                          std::size_t bits, TiePolicy tie) {
  BitVector out(bits);
  simd::active().majority(rows, n, out.words().size(), out.word_data(),
                          tie == TiePolicy::kOne);
  return out;
}

/// Collects word pointers without a heap allocation for realistic bundle
/// sizes (a record's feature count), then runs the kernel.
template <typename WordsOf>
BitVector majority_dispatch(std::size_t n, std::size_t bits, TiePolicy tie,
                            const WordsOf& words_of) {
  const std::uint64_t* stack_rows[64];
  std::vector<const std::uint64_t*> heap_rows;
  const std::uint64_t** rows = stack_rows;
  if (n > 64) {
    heap_rows.resize(n);
    rows = heap_rows.data();
  }
  for (std::size_t i = 0; i < n; ++i) rows[i] = words_of(i);
  return majority_kernel(rows, n, bits, tie);
}

}  // namespace

BitVector majority(std::span<const BitVector> inputs, TiePolicy tie, util::Rng* rng) {
  check_inputs(inputs);
  const std::size_t d = inputs.front().size();
  if (inputs.size() == 1) return inputs.front();
  if (tie != TiePolicy::kRandom) {
    return majority_dispatch(inputs.size(), d, tie,
                             [&](std::size_t i) { return inputs[i].words().data(); });
  }

  // Random tie policy keeps the scalar loop: it must consume one rng draw per
  // tie position in ascending bit order to stay stream-compatible.
  BitVector out(d);
  const std::size_t half_votes = inputs.size();  // compare 2*count vs n
  for (std::size_t i = 0; i < d; ++i) {
    std::size_t ones = 0;
    for (const BitVector& v : inputs) ones += v.get(i) ? 1 : 0;
    const std::size_t twice = 2 * ones;
    if (twice > half_votes) {
      out.set(i, true);
    } else if (twice == half_votes) {
      out.set(i, resolve_tie(tie, rng));
    }
  }
  return out;
}

BitVector majority(std::span<const BitVector* const> inputs, TiePolicy tie,
                   util::Rng* rng) {
  check_inputs(inputs);
  const std::size_t d = inputs.front()->size();
  if (inputs.size() == 1) return *inputs.front();
  if (tie != TiePolicy::kRandom) {
    return majority_dispatch(inputs.size(), d, tie,
                             [&](std::size_t i) { return inputs[i]->words().data(); });
  }

  // Same rng-draw order as the contiguous overload (one draw per tie
  // position, ascending bit order).
  BitVector out(d);
  const std::size_t half_votes = inputs.size();
  for (std::size_t i = 0; i < d; ++i) {
    std::size_t ones = 0;
    for (const BitVector* v : inputs) ones += v->get(i) ? 1 : 0;
    const std::size_t twice = 2 * ones;
    if (twice > half_votes) {
      out.set(i, true);
    } else if (twice == half_votes) {
      out.set(i, resolve_tie(tie, rng));
    }
  }
  return out;
}

BitVector bind(const BitVector& a, const BitVector& b) { return a ^ b; }

void BitAccumulator::add(const BitVector& v) {
  if (v.size() != counts_.size()) {
    throw std::invalid_argument("BitAccumulator: dimensionality mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += v.get(i) ? 1u : 0u;
  ++total_;
}

void BitAccumulator::remove(const BitVector& v) {
  if (v.size() != counts_.size()) {
    throw std::invalid_argument("BitAccumulator: dimensionality mismatch");
  }
  if (total_ == 0) throw std::logic_error("BitAccumulator: remove from empty");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint32_t bit = v.get(i) ? 1u : 0u;
    if (counts_[i] < bit) throw std::logic_error("BitAccumulator: underflow");
    counts_[i] -= bit;
  }
  --total_;
}

BitVector BitAccumulator::to_majority(TiePolicy tie, util::Rng* rng) const {
  BitVector out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t twice = 2 * counts_[i];
    if (twice > total_) {
      out.set(i, true);
    } else if (twice == total_ && total_ != 0) {
      out.set(i, resolve_tie(tie, rng));
    }
  }
  return out;
}

}  // namespace hdc::hv
