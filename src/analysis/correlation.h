#ifndef DCS_ANALYSIS_CORRELATION_H_
#define DCS_ANALYSIS_CORRELATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"

namespace dcs {

/// How a pair scan visits the unordered group pairs (g1 < g2) whose rows it
/// correlates — the dominant cost of the unaligned analysis (Section IV-D:
/// "the vast majority of the computational complexity ... comes from
/// computing, for any two rows, the number of indices in which both rows
/// have value 1"). Optionally parallel over g1 (possibility 3) and
/// optionally restricted to a sampled subset of groups (possibility 2:
/// "sample 10% of the vertices and find a core only in this subset").
struct PairScanOptions {
  /// Parallelize with this pool when set. The callback must then be safe to
  /// invoke concurrently for different g1.
  ThreadPool* pool = nullptr;
  /// Fraction of groups scanned; pairs outside the sample are skipped.
  double group_sample_rate = 1.0;
  /// Seed for the sampling choice.
  std::uint64_t sample_seed = 1;
};

/// The sampling and sharding decisions of one pair scan, fixed before any
/// work runs. `sampled` lists the groups the scan touches, ascending: all
/// of them when the sample rate is 1, and likewise when fewer than 2 groups
/// exist (there are no pairs to sample from, so the scan degenerates
/// gracefully instead of rejecting the request); otherwise at least 2.
/// `shards` partitions [0, sampled.size()) — the first-index dimension of
/// the triangular pair loop — into contiguous ascending ranges (one range
/// serially, ShardsFor() ranges on a pool). Because the
/// ranges are contiguous and ascending, per-shard partial results
/// concatenated in ascending `ShardRange::index` order reproduce the
/// serial ascending-(g1, g2) visit order exactly; that merge rule is what
/// makes the sharded graph build bit-identical at any thread count (see
/// docs/PARALLELISM.md).
struct PairScanPlan {
  std::vector<std::uint32_t> sampled;
  std::vector<ShardRange> shards;
};

/// Decides which groups a scan will touch and how the first index is
/// sharded. Deterministic in (num_groups, sample options, pool width) —
/// never in scheduling.
PairScanPlan PlanGroupPairScan(std::size_t num_groups,
                               const PairScanOptions& options);

/// Executes a planned scan: visit(shard, g1, g2) for every retained pair,
/// where `shard` is the plan shard covering the pair's first index. With a
/// pool, shards run concurrently and the callback must be safe for
/// concurrent invocations with distinct shards; within one shard, pairs
/// arrive in ascending (g1, g2) order. Flushes the `pairscan.*` counters
/// and, on a pool, the per-shard `stage.pairscan_task.ns` timings.
void RunGroupPairScan(
    const PairScanPlan& plan, const PairScanOptions& options,
    const std::function<void(const ShardRange&, std::uint32_t,
                             std::uint32_t)>& visit);

}  // namespace dcs

#endif  // DCS_ANALYSIS_CORRELATION_H_
