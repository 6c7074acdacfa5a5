#include "common/bit_vector.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dcs {
namespace {

TEST(BitVectorTest, StartsAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.CountOnes(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.Test(i));
}

TEST(BitVectorTest, SetTestClear) {
  BitVector v(100);
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(99);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(63));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(99));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.CountOnes(), 4u);
  v.Clear(63);
  EXPECT_FALSE(v.Test(63));
  EXPECT_EQ(v.CountOnes(), 3u);
}

TEST(BitVectorTest, SetIsIdempotent) {
  BitVector v(10);
  v.Set(5);
  v.Set(5);
  EXPECT_EQ(v.CountOnes(), 1u);
}

TEST(BitVectorTest, ResetZeroesEverything) {
  BitVector v(200);
  for (std::size_t i = 0; i < 200; i += 3) v.Set(i);
  v.Reset();
  EXPECT_EQ(v.CountOnes(), 0u);
  EXPECT_EQ(v.size(), 200u);
}

TEST(BitVectorTest, CommonOnesCountsIntersection) {
  BitVector a(128);
  BitVector b(128);
  a.Set(1);
  a.Set(64);
  a.Set(100);
  b.Set(64);
  b.Set(100);
  b.Set(127);
  EXPECT_EQ(a.CommonOnes(b), 2u);
  EXPECT_EQ(b.CommonOnes(a), 2u);
}

TEST(BitVectorTest, FillRatio) {
  BitVector v(64);
  EXPECT_DOUBLE_EQ(v.FillRatio(), 0.0);
  for (std::size_t i = 0; i < 32; ++i) v.Set(i);
  EXPECT_DOUBLE_EQ(v.FillRatio(), 0.5);
  EXPECT_DOUBLE_EQ(BitVector().FillRatio(), 0.0);
}

TEST(BitVectorTest, AppendSetBitsListsAscendingIndices) {
  BitVector v(130);
  v.Set(2);
  v.Set(63);
  v.Set(64);
  v.Set(129);
  std::vector<std::size_t> bits;
  v.AppendSetBits(&bits);
  EXPECT_EQ(bits, (std::vector<std::size_t>{2, 63, 64, 129}));
}

TEST(BitVectorTest, EqualityComparesSizeAndBits) {
  BitVector a(65);
  BitVector b(65);
  EXPECT_TRUE(a == b);
  a.Set(64);
  EXPECT_FALSE(a == b);
  b.Set(64);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == BitVector(64));
}

TEST(BitVectorTest, CommonOnesMatchesBruteForceOnRandomVectors) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(300);
    BitVector a(n);
    BitVector b(n);
    std::size_t expected = 0;
    std::vector<bool> av(n), bv(n);
    for (std::size_t i = 0; i < n; ++i) {
      av[i] = rng.Bernoulli(0.4);
      bv[i] = rng.Bernoulli(0.4);
      if (av[i]) a.Set(i);
      if (bv[i]) b.Set(i);
      if (av[i] && bv[i]) ++expected;
    }
    EXPECT_EQ(a.CommonOnes(b), expected);
  }
}

}  // namespace
}  // namespace dcs
