#include "analysis/correlation.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.h"

namespace dcs {
namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

// Runs `plan` and returns every visited pair, in visit order within each
// shard and shards concatenated in ascending index order (the merge rule
// the graph builder uses).
std::vector<Pair> VisitedPairs(const PairScanPlan& plan,
                               const PairScanOptions& options) {
  std::vector<std::vector<Pair>> per_shard(plan.shards.size());
  RunGroupPairScan(plan, options,
                   [&](const ShardRange& shard, std::uint32_t a,
                       std::uint32_t b) {
                     per_shard[shard.index].emplace_back(a, b);
                   });
  std::vector<Pair> pairs;
  for (const std::vector<Pair>& part : per_shard) {
    pairs.insert(pairs.end(), part.begin(), part.end());
  }
  return pairs;
}

TEST(PairScanPlanTest, SerialCoversAllPairsOnce) {
  const PairScanOptions opts;
  const PairScanPlan plan = PlanGroupPairScan(6, opts);
  EXPECT_EQ(plan.sampled.size(), 6u);
  ASSERT_EQ(plan.shards.size(), 1u);
  std::set<Pair> seen;
  for (const Pair& pair : VisitedPairs(plan, opts)) {
    EXPECT_LT(pair.first, pair.second);
    EXPECT_TRUE(seen.insert(pair).second);
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(PairScanPlanTest, PooledPlanCoversTheSerialPairsInOrder) {
  ThreadPool pool(3);
  PairScanOptions pooled;
  pooled.pool = &pool;
  const PairScanPlan plan = PlanGroupPairScan(10, pooled);
  EXPECT_GT(plan.shards.size(), 1u);
  // Concurrent visits from distinct shards, guarded like any shared sink.
  Mutex mu;
  std::set<Pair> seen;
  RunGroupPairScan(plan, pooled,
                   [&](const ShardRange&, std::uint32_t a, std::uint32_t b) {
                     MutexLock lock(&mu);
                     EXPECT_TRUE(seen.emplace(a, b).second);
                   });
  EXPECT_EQ(seen.size(), 45u);

  // Shard-order concatenation reproduces the serial visit order exactly.
  const PairScanOptions serial;
  EXPECT_EQ(VisitedPairs(plan, pooled),
            VisitedPairs(PlanGroupPairScan(10, serial), serial));
}

TEST(PairScanPlanTest, SamplingRestrictsPairs) {
  PairScanOptions opts;
  opts.group_sample_rate = 0.4;
  opts.sample_seed = 3;
  const PairScanPlan plan = PlanGroupPairScan(100, opts);
  const std::vector<std::uint32_t>& sampled = plan.sampled;
  EXPECT_EQ(sampled.size(), 40u);
  EXPECT_TRUE(std::is_sorted(sampled.begin(), sampled.end()));
  const std::vector<Pair> pairs = VisitedPairs(plan, opts);
  EXPECT_EQ(pairs.size(), 40u * 39 / 2);
  for (const Pair& pair : pairs) {
    EXPECT_TRUE(std::binary_search(sampled.begin(), sampled.end(),
                                   pair.first));
    EXPECT_TRUE(std::binary_search(sampled.begin(), sampled.end(),
                                   pair.second));
  }
}

TEST(PairScanPlanTest, SampledPlanKeepsAtLeastTwoGroups) {
  // 1 % of 50 rounds down to 0; the keep floor of 2 still leaves a pair.
  PairScanOptions opts;
  opts.group_sample_rate = 0.01;
  const PairScanPlan plan = PlanGroupPairScan(50, opts);
  EXPECT_EQ(plan.sampled.size(), 2u);
  EXPECT_EQ(VisitedPairs(plan, opts).size(), 1u);
}

TEST(PairScanPlanTest, SamplingWithTooFewGroupsDoesNotAbort) {
  // Regression: with sampling on, the sampler used to ask for max(keep, 2)
  // groups even when fewer than 2 existed, tripping the k <= n contract of
  // SampleWithoutReplacement and aborting the process.
  PairScanOptions opts;
  opts.group_sample_rate = 0.1;
  const PairScanPlan none = PlanGroupPairScan(0, opts);
  EXPECT_TRUE(none.sampled.empty());
  EXPECT_TRUE(VisitedPairs(none, opts).empty());

  const PairScanPlan one = PlanGroupPairScan(1, opts);
  EXPECT_EQ(one.sampled, std::vector<std::uint32_t>{0});
  EXPECT_TRUE(VisitedPairs(one, opts).empty());
}

TEST(PairScanPlanTest, SamplingTwoGroupsKeepsBoth) {
  // The smallest population where sampling is possible: the keep floor of 2
  // must clamp to the population, not overshoot it.
  PairScanOptions opts;
  opts.group_sample_rate = 0.1;
  const PairScanPlan plan = PlanGroupPairScan(2, opts);
  EXPECT_EQ(plan.sampled, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(VisitedPairs(plan, opts), (std::vector<Pair>{{0u, 1u}}));
}

TEST(PairScanPlanTest, SamplingIsDeterministicBySeed) {
  PairScanOptions opts;
  opts.group_sample_rate = 0.3;
  opts.sample_seed = 5;
  const std::vector<std::uint32_t> a = PlanGroupPairScan(50, opts).sampled;
  const std::vector<std::uint32_t> b = PlanGroupPairScan(50, opts).sampled;
  EXPECT_EQ(a, b);
  opts.sample_seed = 6;
  const std::vector<std::uint32_t> c = PlanGroupPairScan(50, opts).sampled;
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dcs
