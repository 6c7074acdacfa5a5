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
  // New weights replace the window: only their pairs are computed.
  table.Calibrate(std::vector<std::uint32_t>{100, 200}, nullptr);
  EXPECT_EQ(table.cache_misses(), misses + 3);
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
