// Metamorphic properties of the HDC operator algebra — relations that must
// hold for ANY vectors, checked over random instances and dimensionalities.
#include <gtest/gtest.h>

#include "hv/bitvector.hpp"
#include "hv/ops.hpp"
#include "util/rng.hpp"

namespace hdc::hv {
namespace {

struct PropertyCase {
  std::size_t dim;
  std::uint64_t seed;
};

class HvPropertySweep : public ::testing::TestWithParam<PropertyCase> {
 protected:
  [[nodiscard]] BitVector rand_vec(util::Rng& rng) const {
    return BitVector::random(GetParam().dim, rng);
  }
};

TEST_P(HvPropertySweep, BindingPreservesDistance) {
  // d(a ^ c, b ^ c) == d(a, b): XOR binding is an isometry.
  util::Rng rng(GetParam().seed);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  const BitVector c = rand_vec(rng);
  EXPECT_EQ((a ^ c).hamming(b ^ c), a.hamming(b));
}

TEST_P(HvPropertySweep, RotationPreservesDistance) {
  util::Rng rng(GetParam().seed + 1);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  for (const std::size_t k : {1u, 7u, 63u, 64u, 65u}) {
    EXPECT_EQ(a.rotated(k).hamming(b.rotated(k)), a.hamming(b)) << k;
  }
}

TEST_P(HvPropertySweep, XorIsAssociativeAndCommutative) {
  util::Rng rng(GetParam().seed + 2);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  const BitVector c = rand_vec(rng);
  EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));
  EXPECT_EQ(a ^ b, b ^ a);
}

TEST_P(HvPropertySweep, HammingViaXorPopcount) {
  // d(a, b) == popcount(a ^ b): the identity the fast path exploits.
  util::Rng rng(GetParam().seed + 3);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  EXPECT_EQ(a.hamming(b), (a ^ b).popcount());
}

TEST_P(HvPropertySweep, ComplementDistanceIdentity) {
  // d(a, ~b) == dim - d(a, b).
  util::Rng rng(GetParam().seed + 4);
  const BitVector a = rand_vec(rng);
  BitVector b = rand_vec(rng);
  const std::size_t d = a.hamming(b);
  for (std::size_t i = 0; i < b.size(); ++i) b.flip(i);  // ~b
  EXPECT_EQ(a.hamming(b), GetParam().dim - d);
}

TEST_P(HvPropertySweep, MajorityCommutesWithBinding) {
  // majority(a^k, b^k, c^k) == majority(a, b, c) ^ k for any key k: bundling
  // and binding commute, which is what makes record structures composable.
  util::Rng rng(GetParam().seed + 5);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  const BitVector c = rand_vec(rng);
  const BitVector key = rand_vec(rng);
  const std::vector<BitVector> plain = {a, b, c};
  const std::vector<BitVector> bound = {a ^ key, b ^ key, c ^ key};
  EXPECT_EQ(majority(bound), majority(plain) ^ key);
}

TEST_P(HvPropertySweep, MajorityIsPermutationInvariant) {
  util::Rng rng(GetParam().seed + 6);
  const BitVector a = rand_vec(rng);
  const BitVector b = rand_vec(rng);
  const BitVector c = rand_vec(rng);
  const std::vector<BitVector> abc = {a, b, c};
  const std::vector<BitVector> cba = {c, b, a};
  EXPECT_EQ(majority(abc), majority(cba));
}

TEST_P(HvPropertySweep, MajorityBoundedByInputs) {
  // The bundle's distance to any input is at most dim/2 + slack; for odd
  // counts of random vectors it concentrates strictly below half.
  util::Rng rng(GetParam().seed + 7);
  std::vector<BitVector> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(rand_vec(rng));
  const BitVector m = majority(inputs);
  for (const BitVector& v : inputs) {
    EXPECT_LT(m.hamming_fraction(v), 0.5);
  }
}

TEST_P(HvPropertySweep, AccumulatorOrderIndependent) {
  util::Rng rng(GetParam().seed + 8);
  std::vector<BitVector> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(rand_vec(rng));
  BitAccumulator forward(GetParam().dim);
  BitAccumulator backward(GetParam().dim);
  for (const BitVector& v : inputs) forward.add(v);
  for (auto it = inputs.rbegin(); it != inputs.rend(); ++it) backward.add(*it);
  EXPECT_EQ(forward.to_majority(), backward.to_majority());
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, HvPropertySweep,
    ::testing::Values(PropertyCase{64, 1}, PropertyCase{100, 2},
                      PropertyCase{1000, 3}, PropertyCase{4096, 4},
                      PropertyCase{10000, 5}, PropertyCase{10000, 6},
                      PropertyCase{20000, 7}));

}  // namespace
}  // namespace hdc::hv
