#include "common/stats_math.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// LogGamma is the reentrant form of std::lgamma: the same value, bit for
// bit, so switching LogChoose over moved no threshold.
TEST(LogGammaTest, EqualsStdLgamma) {
  for (const double x : {0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 101.0, 1024.5,
                         4194304.0, 1e9, -0.5, -2.5}) {
    EXPECT_EQ(LogGamma(x), std::lgamma(x)) << "x=" << x;
  }
}

TEST(LogChooseTest, SmallValuesExact) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogChoose(10, 10), 0.0, 1e-12);
  EXPECT_EQ(LogChoose(5, 6), -kInf);
  EXPECT_EQ(LogChoose(5, -1), -kInf);
}

TEST(LogChooseTest, SymmetricInK) {
  EXPECT_NEAR(LogChoose(100, 30), LogChoose(100, 70), 1e-9);
}

TEST(LogSumExpTest, Basics) {
  EXPECT_NEAR(LogSumExp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  EXPECT_EQ(LogSumExp(-kInf, std::log(3.0)), std::log(3.0));
  EXPECT_EQ(LogSumExp(std::log(3.0), -kInf), std::log(3.0));
  // No overflow for large magnitudes.
  EXPECT_NEAR(LogSumExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogBinomPmfTest, MatchesDirectComputation) {
  // Binomial(4, 0.5): pmf(2) = 6/16.
  EXPECT_NEAR(std::exp(LogBinomPmf(2, 4, 0.5)), 6.0 / 16.0, 1e-12);
  // Binomial(3, 0.2): pmf(1) = 3 * 0.2 * 0.64.
  EXPECT_NEAR(std::exp(LogBinomPmf(1, 3, 0.2)), 3 * 0.2 * 0.64, 1e-12);
  EXPECT_EQ(LogBinomPmf(-1, 5, 0.5), -kInf);
  EXPECT_EQ(LogBinomPmf(6, 5, 0.5), -kInf);
}

TEST(LogBinomPmfTest, DegenerateP) {
  EXPECT_EQ(LogBinomPmf(0, 5, 0.0), 0.0);
  EXPECT_EQ(LogBinomPmf(1, 5, 0.0), -kInf);
  EXPECT_EQ(LogBinomPmf(5, 5, 1.0), 0.0);
}

TEST(BinomCdfTest, SumsPmfExactly) {
  // Binomial(10, 0.3), check against direct summation.
  for (std::int64_t x = 0; x <= 10; ++x) {
    double direct = 0.0;
    for (std::int64_t k = 0; k <= x; ++k) {
      direct += std::exp(LogBinomPmf(k, 10, 0.3));
    }
    EXPECT_NEAR(BinomCdf(x, 10, 0.3), direct, 1e-12) << "x=" << x;
  }
}

TEST(BinomCdfTest, Boundaries) {
  EXPECT_EQ(BinomCdf(-1, 10, 0.5), 0.0);
  EXPECT_EQ(BinomCdf(10, 10, 0.5), 1.0);
  EXPECT_EQ(BinomCdf(3, 10, 0.0), 1.0);
}

TEST(BinomCdfTest, PaperExampleWeightScreen) {
  // Section V-A.2: 1 - binocdf(550, 1000, 0.5) ~ 0.00073.
  const double sf = 1.0 - BinomCdf(550, 1000, 0.5);
  EXPECT_NEAR(sf, 0.00073, 0.0001);
  // The paper quotes 1 - binocdf(7, 30, 0.55) = 0.988; the exact value is
  // 0.9996 (the paper rounded a slightly different intermediate), and either
  // way the detection probability clears its 0.95 bar.
  EXPECT_NEAR(1.0 - BinomCdf(7, 30, 0.55), 0.9996, 1e-3);
  EXPECT_GT(1.0 - BinomCdf(7, 30, 0.55), 0.988);
}

TEST(LogBinomSfTest, ComplementsCdf) {
  for (std::int64_t x : {0, 5, 9}) {
    const double sf = std::exp(LogBinomSf(x, 10, 0.4));
    EXPECT_NEAR(sf, 1.0 - BinomCdf(x, 10, 0.4), 1e-10);
  }
  EXPECT_EQ(LogBinomSf(10, 10, 0.4), -kInf);
  EXPECT_EQ(LogBinomSf(-1, 10, 0.4), 0.0);
}

TEST(LogBinomSfTest, DeepTailIsFiniteAndMonotone) {
  // P[Bin(45000, 1e-5) > d] for growing d: should decrease steeply and stay
  // finite in the log domain far past double underflow.
  double prev = 0.0;
  for (std::int64_t d = 0; d <= 60; d += 10) {
    const double log_sf = LogBinomSf(d, 45000, 1e-5);
    EXPECT_LT(log_sf, prev);
    EXPECT_TRUE(std::isfinite(log_sf));
    prev = log_sf;
  }
  // d = 60 tail is around e^-242: far below double range but finite here.
  EXPECT_LT(LogBinomSf(60, 45000, 1e-5), -200.0);
}

TEST(BinomQuantileTest, InvertsCdf) {
  for (double q : {0.01, 0.5, 0.9, 0.999}) {
    const std::int64_t x = BinomQuantile(q, 100, 0.3);
    EXPECT_GE(BinomCdf(x, 100, 0.3), q);
    if (x > 0) {
      EXPECT_LT(BinomCdf(x - 1, 100, 0.3), q);
    }
  }
}

TEST(HypergeomPmfTest, MatchesHandComputation) {
  // N=10, i=4 marked, draw j=3: P[k=2] = C(4,2) C(6,1) / C(10,3) = 36/120.
  EXPECT_NEAR(std::exp(LogHypergeomPmf(2, 10, 4, 3)), 36.0 / 120.0, 1e-12);
  EXPECT_EQ(LogHypergeomPmf(5, 10, 4, 3), -kInf);  // k > min(i, j).
}

TEST(HypergeomPmfTest, SupportLowerBound) {
  // N=10, i=8, j=7: k >= i + j - N = 5.
  EXPECT_EQ(LogHypergeomPmf(4, 10, 8, 7), -kInf);
  EXPECT_GT(std::exp(LogHypergeomPmf(5, 10, 8, 7)), 0.0);
}

TEST(HypergeomCdfTest, FullSupportSumsToOne) {
  EXPECT_NEAR(HypergeomCdf(3, 10, 4, 3), 1.0, 1e-12);
  EXPECT_EQ(HypergeomCdf(-1, 10, 4, 3), 0.0);
  double acc = 0.0;
  for (std::int64_t k = 0; k <= 3; ++k) {
    acc += std::exp(LogHypergeomPmf(k, 10, 4, 3));
    EXPECT_NEAR(HypergeomCdf(k, 10, 4, 3), acc, 1e-12);
  }
}

TEST(LogHypergeomSfTest, ComplementsCdf) {
  for (std::int64_t x = 0; x <= 3; ++x) {
    EXPECT_NEAR(std::exp(LogHypergeomSf(x, 10, 4, 3)),
                1.0 - HypergeomCdf(x, 10, 4, 3), 1e-10);
  }
}

TEST(HypergeomUpperThresholdTest, ThresholdIsTight) {
  // Paper-sized rows: N=1024, i=j=512.
  const double p_star = 1e-5;
  const std::int64_t lambda = HypergeomUpperThreshold(p_star, 1024, 512, 512);
  EXPECT_LE(std::exp(LogHypergeomSf(lambda, 1024, 512, 512)), p_star);
  EXPECT_GT(std::exp(LogHypergeomSf(lambda - 1, 1024, 512, 512)), p_star);
  // Mean overlap is 256 with sigma ~ 8; a 1e-5 threshold sits ~4.3 sigma
  // above the mean.
  EXPECT_GT(lambda, 256 + 3 * 8);
  EXPECT_LT(lambda, 256 + 6 * 8);
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

}  // namespace
}  // namespace dcs
