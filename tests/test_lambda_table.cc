#include "analysis/lambda_table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats_math.h"
#include "common/thread_pool.h"

namespace dcs {
namespace {

TEST(LambdaTableTest, MatchesDirectComputation) {
  LambdaTable table(1024, 1e-5);
  for (std::uint32_t i : {100u, 450u, 512u}) {
    for (std::uint32_t j : {80u, 500u}) {
      EXPECT_EQ(table.Threshold(i, j),
                HypergeomUpperThreshold(1e-5, 1024, i, j))
          << i << "," << j;
    }
  }
}

TEST(LambdaTableTest, SymmetricInArguments) {
  LambdaTable table(1024, 1e-4);
  EXPECT_EQ(table.Threshold(300, 400), table.Threshold(400, 300));
}

TEST(LambdaTableTest, MonotoneInRowFill) {
  LambdaTable table(1024, 1e-5);
  EXPECT_LE(table.Threshold(200, 300), table.Threshold(400, 300));
  EXPECT_LE(table.Threshold(400, 300), table.Threshold(400, 600));
}

TEST(LambdaTableTest, FalseAlarmLevelIsRespected) {
  const double p_star = 1e-4;
  LambdaTable table(1024, p_star);
  const std::int64_t lambda = table.Threshold(470, 490);
  EXPECT_LE(std::exp(LogHypergeomSf(lambda, 1024, 470, 490)), p_star);
  EXPECT_GT(std::exp(LogHypergeomSf(lambda - 1, 1024, 470, 490)), p_star);
}

TEST(LambdaTableTest, CacheIsStableAcrossRepeatedCalls) {
  LambdaTable table(512, 1e-4);
  const std::int64_t first = table.Threshold(250, 260);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.Threshold(250, 260), first);
  }
}

TEST(LambdaTableTest, ConcurrentLookupsAgree) {
  LambdaTable table(1024, 1e-5);
  ThreadPool pool(4);
  std::vector<std::int64_t> results(64);
  RunShards(&pool, ShardsFor(&pool, 64), [&](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      results[i] = table.Threshold(static_cast<std::uint32_t>(400 + i % 8),
                                   static_cast<std::uint32_t>(450 + i % 5));
    }
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i],
              table.Threshold(static_cast<std::uint32_t>(400 + i % 8),
                              static_cast<std::uint32_t>(450 + i % 5)));
  }
}

// Row weights of 1024-bit arrays at fills from 1/64 to 1/2, with the
// duplicates and empty rows a real epoch has.
std::vector<std::uint32_t> EpochWeights() {
  std::vector<std::uint32_t> weights = {0, 0};
  Rng rng(5);
  for (int r = 0; r < 60; ++r) {
    weights.push_back(16 + static_cast<std::uint32_t>(rng.UniformInt(497)));
  }
  weights.push_back(16);
  weights.push_back(512);
  weights.push_back(weights[5]);
  return weights;
}

// The p* of the unaligned pipeline's ER graph and its core graph for an
// epoch of 4 routers x 128 groups x 10 arrays (UnalignedPipelineOptions
// defaults: p1 * n = 0.665 and 8.2).
std::vector<double> PipelinePStars() {
  return {LambdaTable::PStarFromEdgeProb(0.665 / 512, 10),
          LambdaTable::PStarFromEdgeProb(8.2 / 512, 10)};
}

std::vector<std::uint32_t> DistinctNonZero(std::vector<std::uint32_t> w) {
  std::sort(w.begin(), w.end());
  w.erase(std::unique(w.begin(), w.end()), w.end());
  w.erase(std::remove(w.begin(), w.end(), 0u), w.end());
  return w;
}

TEST(LambdaTableTest, CalibratedWindowMatchesDirectComputation) {
  const std::vector<std::uint32_t> weights = EpochWeights();
  const std::vector<std::uint32_t> distinct = DistinctNonZero(weights);
  for (const double p_star : PipelinePStars()) {
    const LambdaTable table(1024, p_star);
    table.Calibrate(weights, nullptr);
    // Each unordered pair of distinct non-zero weights, computed once.
    const std::uint64_t pairs = distinct.size() * (distinct.size() + 1) / 2;
    ASSERT_EQ(table.cache_misses(), pairs) << "p* " << p_star;
    for (const std::uint32_t i : distinct) {
      for (const std::uint32_t j : distinct) {
        ASSERT_EQ(table.Threshold(i, j),
                  HypergeomUpperThreshold(p_star, 1024, std::min(i, j),
                                          std::max(i, j)))
            << i << "," << j << " p* " << p_star;
      }
    }
    EXPECT_EQ(table.cache_misses(), pairs) << "every lookup was a hit";
  }
}

TEST(LambdaTableTest, LookupOutsideTheWindowIsComputedAndCounted) {
  const std::vector<std::uint32_t> weights = EpochWeights();
  for (const double p_star : PipelinePStars()) {
    const LambdaTable table(1024, p_star);
    table.Calibrate(weights, nullptr);
    std::uint64_t misses = table.cache_misses();
    // Below the window, above it, and an unobserved pair inside it (17 is
    // in [16, 512] but no row has that weight).
    ASSERT_EQ(std::count(weights.begin(), weights.end(), 17u), 0);
    const std::pair<std::uint32_t, std::uint32_t> outside[] = {
        {3, 300}, {300, 3}, {700, 1024}, {17, 100}, {0, 0}};
    for (const auto& [i, j] : outside) {
      EXPECT_EQ(table.Threshold(i, j),
                HypergeomUpperThreshold(p_star, 1024, std::min(i, j),
                                        std::max(i, j)))
          << i << "," << j;
      EXPECT_EQ(table.cache_misses(), ++misses) << i << "," << j;
    }
  }
}

TEST(LambdaTableTest, RepeatedCalibrationComputesNothing) {
  std::vector<std::uint32_t> weights = EpochWeights();
  const LambdaTable table(1024, PipelinePStars().front());
  table.Calibrate(weights, nullptr);
  const std::uint64_t misses = table.cache_misses();
  table.Calibrate(weights, nullptr);
  EXPECT_EQ(table.cache_misses(), misses);
  // Same distinct weights in another order and multiplicity: still a repeat.
  std::reverse(weights.begin(), weights.end());
  weights.push_back(weights.back());
  table.Calibrate(weights, nullptr);
  EXPECT_EQ(table.cache_misses(), misses);
  // New weights join the held ones: only the pairs they bring are
  // computed, each against every weight held so far.
  const std::vector<std::uint32_t> before = DistinctNonZero(weights);
  std::vector<std::uint32_t> after = before;
  after.push_back(100);
  after.push_back(200);
  after = DistinctNonZero(after);
  ASSERT_GT(after.size(), before.size());
  table.Calibrate(std::vector<std::uint32_t>{100, 200}, nullptr);
  EXPECT_EQ(table.cache_misses(),
            misses + after.size() * (after.size() + 1) / 2 -
                before.size() * (before.size() + 1) / 2);
}

TEST(LambdaTableTest, PooledCalibrationIsIdenticalAtAnyThreadCount) {
  const std::vector<std::uint32_t> weights = EpochWeights();
  for (const double p_star : PipelinePStars()) {
    const LambdaTable serial(1024, p_star);
    serial.Calibrate(weights, nullptr);
    const std::uint64_t calibrated = serial.cache_misses();
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const LambdaTable pooled(1024, p_star);
      pooled.Calibrate(weights, &pool);
      EXPECT_EQ(pooled.cache_misses(), calibrated) << threads << " threads";
      // The whole window, unobserved cells included (those miss alike).
      const std::uint64_t serial_before = serial.cache_misses();
      for (std::uint32_t i = 16; i <= 512; i += 7) {
        for (std::uint32_t j = 16; j <= 512; j += 5) {
          ASSERT_EQ(pooled.Threshold(i, j), serial.Threshold(i, j))
              << i << "," << j << " @ " << threads << " threads";
        }
      }
      EXPECT_EQ(pooled.cache_misses() - calibrated,
                serial.cache_misses() - serial_before)
          << threads << " threads";
    }
  }
}

std::vector<std::uint32_t> WeightRange(std::uint32_t first,
                                       std::uint32_t last) {
  std::vector<std::uint32_t> weights;
  for (std::uint32_t w = first; w <= last; ++w) weights.push_back(w);
  return weights;
}

// The row weights of the 4 x 128 x 10 x 1024 unaligned epoch in the
// benchmark span 196-418: a dense window where every cell is reached by
// the monotone walk from its left neighbour.
TEST(LambdaTableTest, MonotoneFillMatchesBisectionOverAWormWindow) {
  const std::vector<std::uint32_t> weights = WeightRange(190, 420);
  const std::vector<double> p_stars = PipelinePStars();
  const LambdaTable er(1024, p_stars[0]);
  const LambdaTable core(1024, p_stars[1]);
  ASSERT_LT(er.p_star(), core.p_star());
  er.Calibrate(weights, nullptr);
  core.Calibrate(weights, nullptr);
  const std::uint64_t pairs = weights.size() * (weights.size() + 1) / 2;
  ASSERT_EQ(er.cache_misses(), pairs);
  ASSERT_EQ(core.cache_misses(), pairs);
  for (const std::uint32_t i : weights) {
    for (const std::uint32_t j : weights) {
      if (j < i) continue;
      ASSERT_EQ(er.Threshold(i, j),
                HypergeomUpperThreshold(er.p_star(), 1024, i, j))
          << i << "," << j;
      ASSERT_EQ(core.Threshold(i, j),
                HypergeomUpperThreshold(core.p_star(), 1024, i, j))
          << i << "," << j;
      // The fused scan reads the larger-p* table first and relies on it
      // being pointwise no higher.
      ASSERT_LE(core.Threshold(i, j), er.Threshold(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(er.cache_misses(), pairs) << "every lookup was a hit";
  EXPECT_EQ(core.cache_misses(), pairs) << "every lookup was a hit";
}

// A table kept across epochs: a second, overlapping weight set grows the
// window and computes exactly the pairs with at least one new weight, and
// their union then computes nothing. Identical at any thread count.
TEST(LambdaTableTest, ExtendingTheWindowComputesOnlyNewPairs) {
  const std::vector<std::uint32_t> first = WeightRange(250, 330);
  const std::vector<std::uint32_t> second = WeightRange(190, 290);
  const std::vector<std::uint32_t> both = WeightRange(190, 330);
  const auto pairs = [](std::size_t n) { return n * (n + 1) / 2; };
  for (const double p_star : PipelinePStars()) {
    const LambdaTable serial(1024, p_star);
    serial.Calibrate(first, nullptr);
    ASSERT_EQ(serial.cache_misses(), pairs(first.size()));
    serial.Calibrate(second, nullptr);
    ASSERT_EQ(serial.cache_misses(), pairs(both.size())) << "p* " << p_star;
    serial.Calibrate(both, nullptr);
    ASSERT_EQ(serial.cache_misses(), pairs(both.size())) << "p* " << p_star;
    for (const std::uint32_t i : both) {
      for (const std::uint32_t j : both) {
        if (j < i) continue;
        ASSERT_EQ(serial.Threshold(i, j),
                  HypergeomUpperThreshold(p_star, 1024, i, j))
            << i << "," << j << " p* " << p_star;
      }
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const LambdaTable pooled(1024, p_star);
      pooled.Calibrate(first, &pool);
      pooled.Calibrate(second, &pool);
      pooled.Calibrate(both, &pool);
      EXPECT_EQ(pooled.cache_misses(), pairs(both.size()))
          << threads << " threads";
      for (const std::uint32_t i : both) {
        for (const std::uint32_t j : both) {
          ASSERT_EQ(pooled.Threshold(i, j), serial.Threshold(i, j))
              << i << "," << j << " @ " << threads << " threads";
        }
      }
    }
  }
}

// The square window after it grows below and then above its first span:
// both mirror cells of every held pair, read by Threshold() and through
// WindowRow(), are the direct computation; an unheld weight inside the
// window reads -1 through its row and misses through Threshold(); a
// weight outside it has no row.
TEST(LambdaTableTest, SquareWindowGrowsDownwardAndUpward) {
  const std::vector<std::uint32_t> middle = {300, 302, 310};
  const std::vector<std::uint32_t> lower = {200, 240, 301};
  const std::vector<std::uint32_t> upper = {305, 420};
  const std::vector<std::uint32_t> held =
      DistinctNonZero({300, 302, 310, 200, 240, 301, 305, 420});
  for (const double p_star : PipelinePStars()) {
    const LambdaTable table(1024, p_star);
    table.Calibrate(middle, nullptr);
    EXPECT_EQ(table.window_low(), 300u);
    EXPECT_EQ(table.window_span(), 11u);
    table.Calibrate(lower, nullptr);
    EXPECT_EQ(table.window_low(), 200u);
    table.Calibrate(upper, nullptr);
    EXPECT_EQ(table.window_low(), 200u);
    EXPECT_EQ(table.window_span(), 221u);
    const std::uint64_t misses = table.cache_misses();
    ASSERT_EQ(misses, held.size() * (held.size() + 1) / 2);
    for (const std::uint32_t i : held) {
      const std::int32_t* row = table.WindowRow(i);
      ASSERT_NE(row, nullptr) << i;
      for (const std::uint32_t j : held) {
        const std::int64_t want = HypergeomUpperThreshold(
            p_star, 1024, std::min(i, j), std::max(i, j));
        ASSERT_EQ(table.Threshold(i, j), want) << i << "," << j;
        ASSERT_EQ(row[j - table.window_low()], want) << i << "," << j;
      }
      EXPECT_EQ(row[250 - table.window_low()], -1) << i;
    }
    EXPECT_EQ(table.cache_misses(), misses) << "every held pair was a hit";
    EXPECT_EQ(table.WindowRow(199), nullptr);
    EXPECT_EQ(table.WindowRow(421), nullptr);
    EXPECT_EQ(table.WindowRow(0), nullptr);
    ASSERT_NE(table.WindowRow(250), nullptr);
    EXPECT_EQ(table.WindowRow(250)[300 - table.window_low()], -1);
    EXPECT_EQ(table.Threshold(250, 300),
              HypergeomUpperThreshold(p_star, 1024, 250, 300));
    EXPECT_EQ(table.cache_misses(), misses + 1);
  }
}

TEST(LambdaTableTest, EdgeProbPStarRoundTrip) {
  for (double p1 : {1e-5, 1e-4, 1e-2}) {
    const double p_star = LambdaTable::PStarFromEdgeProb(p1, 10);
    EXPECT_NEAR(LambdaTable::EdgeProbFromPStar(p_star, 10), p1,
                p1 * 1e-9);
  }
}

TEST(LambdaTableTest, EdgeProbIsAboutPairsTimesPStar) {
  // For tiny p_star, p1 ~ arrays^2 * p_star.
  const double p1 = LambdaTable::EdgeProbFromPStar(1e-8, 10);
  EXPECT_NEAR(p1, 100 * 1e-8, 1e-10);
}

}  // namespace
}  // namespace dcs
