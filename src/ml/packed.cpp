#include "ml/packed.hpp"

#include <bit>

namespace hdc::ml {

hv::RowMask label_mask(const Labels& y) {
  hv::RowMask mask = hv::RowMask::none(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 1) mask.set(i, true);
  }
  return mask;
}

void masked_pair_sum(const std::uint64_t* col, const std::uint64_t* mask,
                     std::size_t words, const double* a, const double* b,
                     double& sum_a, double& sum_b) {
  double sa = 0.0;
  double sb = 0.0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = col[w] & mask[w];
    while (bits != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      sa += a[r];
      sb += b[r];
      bits &= bits - 1;
    }
  }
  sum_a = sa;
  sum_b = sb;
}

void masked_pair_sum_not(const std::uint64_t* col, const std::uint64_t* mask,
                         std::size_t words, const double* a, const double* b,
                         double& sum_a, double& sum_b) {
  double sa = 0.0;
  double sb = 0.0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = ~col[w] & mask[w];
    while (bits != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      sa += a[r];
      sb += b[r];
      bits &= bits - 1;
    }
  }
  sum_a = sa;
  sum_b = sb;
}

}  // namespace hdc::ml
