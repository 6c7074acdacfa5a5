#include "analysis/correlation.h"

#include <algorithm>

#include "common/distributions.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

PairScanPlan PlanGroupPairScan(std::size_t num_groups,
                               const PairScanOptions& options) {
  PairScanPlan plan;
  std::vector<std::uint32_t>& sampled = plan.sampled;
  if (options.group_sample_rate >= 1.0) {
    sampled.resize(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      sampled[g] = static_cast<std::uint32_t>(g);
    }
  } else if (num_groups < 2) {
    // No pairs exist; sampling is moot. Returning the trivial group list
    // (rather than sampling) keeps SampleWithoutReplacement's k <= n
    // contract intact — the old code asked it for 2 of {0, 1} and aborted.
    sampled.resize(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g) {
      sampled[g] = static_cast<std::uint32_t>(g);
    }
  } else {
    DCS_CHECK(options.group_sample_rate > 0.0);
    const auto keep = static_cast<std::uint64_t>(
        options.group_sample_rate * static_cast<double>(num_groups));
    // At least 2 so a sampled scan always has a pair to visit, but never
    // more than the population.
    const std::uint64_t want = std::min<std::uint64_t>(
        num_groups, std::max<std::uint64_t>(keep, 2));
    Rng rng(options.sample_seed);
    for (std::uint64_t g : SampleWithoutReplacement(&rng, num_groups, want)) {
      sampled.push_back(static_cast<std::uint32_t>(g));
    }
    std::sort(sampled.begin(), sampled.end());
  }
  // Contiguous ascending ranges of the first index either way; only the
  // range count differs between the serial and pooled plans, never the
  // visit order a shard-order merge reconstructs.
  plan.shards = ShardsFor(options.pool, sampled.size());
  return plan;
}

void RunGroupPairScan(
    const PairScanPlan& plan, const PairScanOptions& options,
    const std::function<void(const ShardRange&, std::uint32_t,
                             std::uint32_t)>& visit) {
  const std::vector<std::uint32_t>& sampled = plan.sampled;
  // Hoisted so the hot loops touch only lock-free metric objects (the name
  // lookup takes the registry mutex once per scan, not per task).
  const bool obs = ObsEnabled();
  LatencyHistogram* task_hist =
      obs && options.pool != nullptr
          ? &ObsHistogram("stage.pairscan_task.ns")
          : nullptr;

  auto scan_shard = [&](const ShardRange& shard) {
    StageStopwatch watch;
    if (task_hist != nullptr) watch.Start();
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      for (std::size_t j = i + 1; j < sampled.size(); ++j) {
        visit(shard, sampled[i], sampled[j]);
      }
    }
    if (task_hist != nullptr) task_hist->Record(watch.ElapsedNanos());
  };
  RunShards(options.pool, plan.shards, scan_shard);

  if (obs) {
    const std::uint64_t s = sampled.size();
    ObsCounter("pairscan.scans").Increment();
    ObsCounter("pairscan.groups_scanned").Add(s);
    ObsCounter("pairscan.pairs_visited").Add(s * (s - 1) / 2);
  }
}

}  // namespace dcs
