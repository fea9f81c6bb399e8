// Bit-packed fast-path plumbing shared by the ML models.
//
// When the design matrix is entirely 0/1 (hypervector features), every model
// in the zoo can answer its training-time statistics from column bitplanes:
// split-search class counts become AND/ANDNOT + popcount over node masks,
// and gradient/dot-product accumulations walk only the set bits of a masked
// plane. The packed paths are built to be *bit-identical* to the dense ones
// — same floating-point accumulation order, same tie-breaks, same RNG draw
// sequence — so switching the path can never change a result, only its cost.
//
// The packed route is chosen by the input type alone: fit_bits() takes a
// BitMatrix and runs it, fit() takes doubles and runs the dense code.
// tests/ml_packed_parity_test.cpp holds the two to each other.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hv/bit_matrix.hpp"
#include "ml/classifier.hpp"

namespace hdc::ml {

/// Rows with label 1 as a packed mask (padding bits zero).
[[nodiscard]] hv::RowMask label_mask(const Labels& y);

/// Ascending-row partial sums of a[r] (and b[r]) over the set bits of
/// (col AND mask) — float accumulation order identical to a dense
/// ascending-row loop that adds where column bit r is 1.
void masked_pair_sum(const std::uint64_t* col, const std::uint64_t* mask,
                     std::size_t words, const double* a, const double* b,
                     double& sum_a, double& sum_b);

/// Same over the set bits of (NOT col AND mask) — the bit==0 side of a
/// binary split, served from the same plane without a negated copy.
void masked_pair_sum_not(const std::uint64_t* col, const std::uint64_t* mask,
                         std::size_t words, const double* a, const double* b,
                         double& sum_a, double& sum_b);

}  // namespace hdc::ml
