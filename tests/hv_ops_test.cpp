#include "hv/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace hdc::hv {
namespace {

std::vector<BitVector> random_vectors(std::size_t count, std::size_t dim,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<BitVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(BitVector::random(dim, rng));
  return out;
}

TEST(Majority, SingleInputIsIdentity) {
  const auto v = random_vectors(1, 1000, 1);
  EXPECT_EQ(majority(v), v[0]);
}

TEST(Majority, UnanimousInputsReproduce) {
  util::Rng rng(2);
  const BitVector v = BitVector::random(1000, rng);
  const std::vector<BitVector> inputs = {v, v, v};
  EXPECT_EQ(majority(inputs), v);
}

TEST(Majority, OddMajorityRules) {
  BitVector a(4);
  BitVector b(4);
  BitVector c(4);
  a.set(0, true);
  b.set(0, true);  // bit0: 2/3 ones -> 1
  c.set(1, true);  // bit1: 1/3 ones -> 0
  const std::vector<BitVector> inputs = {a, b, c};
  const BitVector m = majority(inputs);
  EXPECT_TRUE(m.get(0));
  EXPECT_FALSE(m.get(1));
  EXPECT_FALSE(m.get(2));
}

TEST(Majority, TieGoesToOneByDefault) {
  BitVector a(2);
  BitVector b(2);
  a.set(0, true);  // bit0: 1 vs 1 -> tie
  const std::vector<BitVector> inputs = {a, b};
  const BitVector m = majority(inputs);
  EXPECT_TRUE(m.get(0));
  EXPECT_FALSE(m.get(1));  // 0 vs 0 is not a tie; it is unanimous zero
}

TEST(Majority, TieZeroPolicy) {
  BitVector a(2);
  BitVector b(2);
  a.set(0, true);
  const std::vector<BitVector> inputs = {a, b};
  const BitVector m = majority(inputs, TiePolicy::kZero);
  EXPECT_FALSE(m.get(0));
}

TEST(Majority, TieRandomNeedsRng) {
  BitVector a(2);
  BitVector b(2);
  a.set(0, true);
  const std::vector<BitVector> inputs = {a, b};
  EXPECT_THROW((void)majority(inputs, TiePolicy::kRandom), std::invalid_argument);
  util::Rng rng(3);
  EXPECT_NO_THROW((void)majority(inputs, TiePolicy::kRandom, &rng));
}

TEST(Majority, TieRandomIsRoughlyFair) {
  const std::size_t dim = 10000;
  util::Rng vec_rng(4);
  const BitVector a = BitVector::random(dim, vec_rng);
  BitVector b = a;
  for (std::size_t i = 0; i < dim; ++i) b.flip(i);  // complement: every bit ties
  util::Rng rng(5);
  const std::vector<BitVector> inputs = {a, b};
  const BitVector m = majority(inputs, TiePolicy::kRandom, &rng);
  EXPECT_NEAR(static_cast<double>(m.popcount()) / dim, 0.5, 0.03);
}

TEST(Majority, EmptyInputThrows) {
  const std::vector<BitVector> none;
  EXPECT_THROW((void)majority(none), std::invalid_argument);
}

TEST(Majority, MixedDimsThrow) {
  const std::vector<BitVector> inputs = {BitVector(8), BitVector(16)};
  EXPECT_THROW((void)majority(inputs), std::invalid_argument);
}

TEST(Majority, ResultIsCloserToInputsThanRandom) {
  // The bundling property: the majority vector is similar to each input.
  const std::size_t dim = 10000;
  const auto inputs = random_vectors(5, dim, 6);
  const BitVector m = majority(inputs);
  util::Rng rng(7);
  const BitVector outsider = BitVector::random(dim, rng);
  for (const BitVector& v : inputs) {
    EXPECT_LT(m.hamming(v), m.hamming(outsider));
  }
}

TEST(Majority, DistanceToInputsShrinksWithFewerInputs) {
  const std::size_t dim = 10000;
  const auto three = random_vectors(3, dim, 8);
  const auto nine = random_vectors(9, dim, 9);
  const double d3 = majority(three).hamming_fraction(three[0]);
  const double d9 = majority(nine).hamming_fraction(nine[0]);
  EXPECT_LT(d3, d9);  // more inputs -> each input is further from the bundle
}

TEST(Bind, XorSemantics) {
  util::Rng rng(13);
  const BitVector a = BitVector::random(1000, rng);
  const BitVector b = BitVector::random(1000, rng);
  const BitVector bound = bind(a, b);
  EXPECT_EQ(bind(bound, b), a);  // unbinding recovers the filler
}

TEST(Bind, BoundVectorIsDissimilarToInputs) {
  util::Rng rng(14);
  const BitVector a = BitVector::random(10000, rng);
  const BitVector b = BitVector::random(10000, rng);
  const BitVector bound = bind(a, b);
  EXPECT_NEAR(bound.hamming_fraction(a), 0.5, 0.05);
  EXPECT_NEAR(bound.hamming_fraction(b), 0.5, 0.05);
}

TEST(BitAccumulator, MatchesBatchMajority) {
  const auto inputs = random_vectors(7, 3000, 18);
  BitAccumulator acc(3000);
  for (const BitVector& v : inputs) acc.add(v);
  EXPECT_EQ(acc.total(), 7u);
  EXPECT_EQ(acc.to_majority(), majority(inputs));
}

TEST(BitAccumulator, RemoveUndoesAdd) {
  const auto inputs = random_vectors(4, 1000, 19);
  BitAccumulator acc(1000);
  for (const BitVector& v : inputs) acc.add(v);
  acc.remove(inputs[3]);
  BitAccumulator expected(1000);
  for (std::size_t i = 0; i < 3; ++i) expected.add(inputs[i]);
  EXPECT_EQ(acc.to_majority(), expected.to_majority());
  EXPECT_EQ(acc.total(), 3u);
}

TEST(BitAccumulator, RemoveFromEmptyThrows) {
  BitAccumulator acc(100);
  EXPECT_THROW(acc.remove(BitVector(100)), std::logic_error);
}

TEST(BitAccumulator, DimensionMismatchThrows) {
  BitAccumulator acc(100);
  EXPECT_THROW(acc.add(BitVector(99)), std::invalid_argument);
}

TEST(BitAccumulator, EmptyMajorityIsZeroVector) {
  BitAccumulator acc(64);
  EXPECT_EQ(acc.to_majority().popcount(), 0u);
}

// Property sweep over input counts: bundling keeps inputs within expected
// distance (binomial concentration around (n-1)/(2n) for random inputs).
class MajorityCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MajorityCountSweep, BundleDistanceMatchesTheory) {
  const std::size_t count = GetParam();
  const std::size_t dim = 10000;
  const auto inputs = random_vectors(count, dim, 100 + count);
  const BitVector m = majority(inputs);
  // For odd n random inputs, E[dist(bundle, input)] / dim approaches
  // 0.5 - c/sqrt(n); it must at least stay clearly below 0.5.
  double mean = 0.0;
  for (const BitVector& v : inputs) mean += m.hamming_fraction(v);
  mean /= static_cast<double>(count);
  EXPECT_LT(mean, 0.47);
  EXPECT_GT(mean, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Counts, MajorityCountSweep, ::testing::Values(3, 5, 9, 15));

}  // namespace
}  // namespace hdc::hv
