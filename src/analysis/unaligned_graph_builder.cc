#include "analysis/unaligned_graph_builder.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

Graph BuildCorrelationGraph(const BitMatrix& matrix,
                            const LambdaTable& lambda,
                            const GraphBuilderOptions& options) {
  ScopedStageTimer stage("build_correlation_graph");
  const std::size_t arrays = options.arrays_per_group;
  DCS_CHECK(arrays > 0);
  DCS_CHECK(matrix.rows() % arrays == 0);
  const std::size_t num_groups = matrix.rows() / arrays;
  const bool obs = ObsEnabled();
  const std::uint64_t misses_before = lambda.cache_misses();
  ThreadPool* pool = options.scan.pool;

  // Row weights once; the lambda lookup needs them per pair. Pure per-row
  // writes, so the sharded pass needs no merge at all.
  std::vector<std::uint32_t> row_ones(matrix.rows());
  {
    ScopedStageTimer timer("unaligned_row_weights");
    RunShards(pool, ShardsFor(pool, matrix.rows()),
              [&](const ShardRange& shard) {
                for (std::size_t r = shard.begin; r < shard.end; ++r) {
                  row_ones[r] =
                      static_cast<std::uint32_t>(matrix.row(r).CountOnes());
                }
              });
  }

  // Sharded lambda calibration: precompute the threshold for every pair of
  // observed row weights, so the scan below runs against a warm cache
  // instead of serializing hypergeometric solves through first-touch
  // misses.
  {
    ScopedStageTimer timer("unaligned_lambda_calibrate");
    lambda.Calibrate(row_ones, pool);
  }
  const std::uint64_t misses_after_calibration = lambda.cache_misses();

  // The scan proper. Each shard appends candidate edges to its own buffer;
  // shards are contiguous ascending ranges of the first group index, so
  // concatenating the buffers in ascending shard order reproduces the
  // serial emission order exactly — no mutex, no ordering leak.
  const PairScanPlan plan = PlanGroupPairScan(num_groups, options.scan);
  using Edge = std::pair<std::uint32_t, std::uint32_t>;
  std::vector<std::vector<Edge>> shard_edges(plan.shards.size());
  // Per-shard scratch for the batched kernel counts, and per-shard compare
  // tallies (summed once at the end — integer sums are merge-order-free).
  std::vector<std::vector<std::uint32_t>> shard_counts(plan.shards.size());
  std::vector<std::uint64_t> shard_compares(plan.shards.size(), 0);

  RunGroupPairScan(
      plan, options.scan,
      [&](const ShardRange& shard, std::uint32_t g1, std::uint32_t g2) {
        const std::size_t base1 = g1 * arrays;
        const std::size_t base2 = g2 * arrays;
        // Group 2's rows are contiguous in the matrix, so one batched
        // kernel call per row1 covers the whole inner loop. Thresholds are
        // still consulted in the original (i, j) order with the same
        // zero-row skips, so compares / edge choice / lambda cache traffic
        // are unchanged.
        const std::span<const BitVector> group2(&matrix.row(base2), arrays);
        std::vector<std::uint32_t>& common_counts = shard_counts[shard.index];
        if (common_counts.size() != arrays) common_counts.resize(arrays);
        std::uint64_t compares = 0;
        for (std::size_t i = 0; i < arrays; ++i) {
          const BitVector& row1 = matrix.row(base1 + i);
          const std::uint32_t ones1 = row_ones[base1 + i];
          if (ones1 == 0) continue;
          row1.CommonOnesBatch(group2, common_counts);
          for (std::size_t j = 0; j < arrays; ++j) {
            const std::uint32_t ones2 = row_ones[base2 + j];
            if (ones2 == 0) continue;
            ++compares;
            const auto common = static_cast<std::int64_t>(common_counts[j]);
            if (common > lambda.Threshold(ones1, ones2)) {
              shard_compares[shard.index] += compares;
              shard_edges[shard.index].emplace_back(g1, g2);
              return;  // At most one edge per group pair.
            }
          }
        }
        shard_compares[shard.index] += compares;
      });

  Graph graph(num_groups);
  {
    ScopedStageTimer timer("unaligned_edge_merge");
    for (const std::vector<Edge>& edges : shard_edges) {
      for (const auto& [g1, g2] : edges) graph.AddEdge(g1, g2);
    }
  }
  graph.Finalize();

  if (obs) {
    std::uint64_t compares = 0;
    for (const std::uint64_t c : shard_compares) compares += c;
    const std::uint64_t misses = lambda.cache_misses() - misses_before;
    const std::uint64_t scan_misses =
        lambda.cache_misses() - misses_after_calibration;
    ObsCounter("pairscan.row_pairs_compared").Add(compares);
    ObsCounter("pairscan.edges_emitted").Add(graph.num_edges());
    ObsCounter("lambda.cache_misses").Add(misses);
    ObsCounter("lambda.lookups").Add(compares);
    ObsCounter("unaligned.lambda_calibrated_entries")
        .Add(misses_after_calibration - misses_before);
    ObsGauge("unaligned.scan_shards")
        .Set(static_cast<double>(plan.shards.size()));
    if (compares > 0) {
      // Hit rate of the scan itself; after calibration this should sit at
      // 1.0, so anything lower flags weights the calibration never saw.
      ObsGauge("lambda.cache_hit_rate")
          .Set(1.0 - static_cast<double>(scan_misses) /
                         static_cast<double>(compares));
    }
  }
  return graph;
}

}  // namespace dcs
