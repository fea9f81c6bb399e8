#include "hv/bitvector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace hdc::hv {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVector, ConstructedZeroed) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, SetGetFlip) {
  BitVector v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3u);
  v.set(0, false);
  EXPECT_FALSE(v.get(0));
}

TEST(BitVector, HammingSelfIsZero) {
  util::Rng rng(1);
  const BitVector v = BitVector::random(1000, rng);
  EXPECT_EQ(v.hamming(v), 0u);
}

TEST(BitVector, HammingSymmetric) {
  util::Rng rng(2);
  const BitVector a = BitVector::random(1000, rng);
  const BitVector b = BitVector::random(1000, rng);
  EXPECT_EQ(a.hamming(b), b.hamming(a));
}

TEST(BitVector, HammingTriangleInequality) {
  util::Rng rng(3);
  const BitVector a = BitVector::random(512, rng);
  const BitVector b = BitVector::random(512, rng);
  const BitVector c = BitVector::random(512, rng);
  EXPECT_LE(a.hamming(c), a.hamming(b) + b.hamming(c));
}

TEST(BitVector, HammingCountsDifferences) {
  BitVector a(10);
  BitVector b(10);
  b.set(2, true);
  b.set(7, true);
  EXPECT_EQ(a.hamming(b), 2u);
}

TEST(BitVector, HammingSizeMismatchThrows) {
  BitVector a(10);
  BitVector b(11);
  EXPECT_THROW((void)a.hamming(b), std::invalid_argument);
}

TEST(BitVector, XorIsBitwise) {
  BitVector a(8);
  BitVector b(8);
  a.set(0, true);
  a.set(1, true);
  b.set(1, true);
  b.set(2, true);
  const BitVector c = a ^ b;
  EXPECT_TRUE(c.get(0));
  EXPECT_FALSE(c.get(1));
  EXPECT_TRUE(c.get(2));
  EXPECT_EQ(c.popcount(), 2u);
}

TEST(BitVector, XorSelfInverse) {
  util::Rng rng(4);
  const BitVector a = BitVector::random(10000, rng);
  const BitVector b = BitVector::random(10000, rng);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST(BitVector, RotatePreservesPopcount) {
  util::Rng rng(6);
  const BitVector v = BitVector::random(997, rng);  // prime length
  const BitVector r = v.rotated(13);
  EXPECT_EQ(r.popcount(), v.popcount());
}

TEST(BitVector, RotateByZeroOrSizeIsIdentity) {
  util::Rng rng(7);
  const BitVector v = BitVector::random(256, rng);
  EXPECT_EQ(v.rotated(0), v);
  EXPECT_EQ(v.rotated(256), v);
}

TEST(BitVector, RotateComposition) {
  util::Rng rng(8);
  const BitVector v = BitVector::random(100, rng);
  EXPECT_EQ(v.rotated(30).rotated(70), v);
}

TEST(BitVector, RotateMovesBits) {
  BitVector v(10);
  v.set(0, true);
  const BitVector r = v.rotated(3);
  EXPECT_TRUE(r.get(3));
  EXPECT_EQ(r.popcount(), 1u);
}

TEST(BitVector, RandomIsDeterministicPerSeed) {
  util::Rng rng1(9);
  util::Rng rng2(9);
  EXPECT_EQ(BitVector::random(10000, rng1), BitVector::random(10000, rng2));
}

TEST(BitVector, RandomDensityNearHalf) {
  util::Rng rng(10);
  const BitVector v = BitVector::random(100000, rng);
  EXPECT_NEAR(static_cast<double>(v.popcount()) / 100000.0, 0.5, 0.01);
}

TEST(BitVector, RandomWithOnesExact) {
  // The exact-count draw behind random_balanced, at a size with a ragged
  // last word.
  util::Rng rng(11);
  const BitVector v = BitVector::random_balanced(1000, rng);
  EXPECT_EQ(v.popcount(), 500u);
}

TEST(BitVector, RandomBalancedIsExactlyHalf) {
  util::Rng rng(13);
  const BitVector v = BitVector::random_balanced(10000, rng);
  EXPECT_EQ(v.popcount(), 5000u);
}

TEST(BitVector, RandomBalancedOddThrows) {
  util::Rng rng(14);
  EXPECT_THROW((void)BitVector::random_balanced(11, rng), std::invalid_argument);
}

TEST(BitVector, WithFlippedChangesExactCount) {
  util::Rng rng(15);
  const BitVector v = BitVector::random_balanced(2000, rng);
  const BitVector f = v.with_flipped(100, 100, rng);
  EXPECT_EQ(v.hamming(f), 200u);
  EXPECT_EQ(f.popcount(), v.popcount());  // equal flips preserve density
}

TEST(BitVector, WithFlippedZeroIsIdentity) {
  util::Rng rng(16);
  const BitVector v = BitVector::random(500, rng);
  EXPECT_EQ(v.with_flipped(0, 0, rng), v);
}

TEST(BitVector, WithFlippedOverflowThrows) {
  util::Rng rng(17);
  const BitVector v = BitVector::random_balanced(100, rng);  // 50 ones
  EXPECT_THROW((void)v.with_flipped(51, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)v.with_flipped(0, 51, rng), std::invalid_argument);
}

TEST(BitVector, ToStringRendersBits) {
  BitVector v(8);
  v.set(0, true);
  v.set(2, true);
  EXPECT_EQ(v.to_string(8), "10100000");
}

TEST(BitVector, ToStringTruncates) {
  BitVector v(100);
  const std::string s = v.to_string(10);
  EXPECT_EQ(s.size(), 13u);  // 10 chars + "..."
  EXPECT_EQ(s.substr(10), "...");
}

TEST(BitVector, ToDoublesMatchesBits) {
  BitVector v(5);
  v.set(1, true);
  v.set(4, true);
  const std::vector<double> d = v.to_doubles();
  ASSERT_EQ(d.size(), 5u);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[4], 1.0);
}

TEST(BitVector, OrAndOperators) {
  BitVector a(4);
  BitVector b(4);
  a.set(0, true);
  b.set(0, true);
  b.set(1, true);
  BitVector o = a;
  o |= b;
  EXPECT_EQ(o.popcount(), 2u);
  BitVector n = a;
  n &= b;
  EXPECT_EQ(n.popcount(), 1u);
  EXPECT_TRUE(n.get(0));
}

// Property sweep: random pairs at several dimensionalities concentrate near
// 0.5 normalised distance (quasi-orthogonality of random hypervectors).
class BitVectorDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorDimSweep, RandomPairsAreQuasiOrthogonal) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim);
  const BitVector a = BitVector::random(dim, rng);
  const BitVector b = BitVector::random(dim, rng);
  // Tolerance ~ 5 standard deviations of Binomial(dim, 0.5)/dim.
  const double tol = 5.0 * 0.5 / std::sqrt(static_cast<double>(dim));
  EXPECT_NEAR(a.hamming_fraction(b), 0.5, tol);
}

TEST_P(BitVectorDimSweep, PaddingBitsStayZeroThroughOps) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim + 1);
  BitVector v = BitVector::random(dim, rng).rotated(dim / 3);
  v |= BitVector::random(dim, rng);
  v ^= BitVector::random(dim, rng);
  EXPECT_LE(v.popcount(), dim);
}

INSTANTIATE_TEST_SUITE_P(Dims, BitVectorDimSweep,
                         ::testing::Values(64, 100, 1000, 4096, 10000, 20000));

}  // namespace
}  // namespace hdc::hv
