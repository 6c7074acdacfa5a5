#include "analysis/unaligned_graph_builder.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bit_kernels.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

namespace {

// Whether any count of the arrays x arrays `tile` exceeds its `low`
// threshold, tested branch-free: one window row per non-zero row1 (weights
// `ones1`), indexed by each row2's window column `col2`. Kept out of line:
// inlined into the scan loop, its pointers and accumulator spill to the
// stack and the test costs about a quarter more.
[[gnu::noinline]] bool TileClearsLow(const std::uint32_t* tile,
                                     const std::uint32_t* ones1,
                                     const std::uint32_t* col2,
                                     const LambdaTable& low,
                                     std::size_t arrays) {
  bool clears = false;
  for (std::size_t i = 0; i < arrays; ++i) {
    if (ones1[i] == 0) continue;
    const std::int32_t* lambda_row = low.WindowRow(ones1[i]);
    const std::uint32_t* counts = tile + i * arrays;
    for (std::size_t j = 0; j < arrays; ++j) {
      clears |= static_cast<std::int32_t>(counts[j]) > lambda_row[col2[j]];
    }
  }
  return clears;
}

// The one pair-scan kernel. Builds the graph under `low` and, when `high`
// is non-null, the graph under `high` too; `high` must be pointwise >=
// `low` (its p* is no larger). Returns one graph per table, `low`'s first.
std::vector<Graph> ScanCorrelationGraphs(const BitMatrix& matrix,
                                         const LambdaTable& low,
                                         const LambdaTable* high,
                                         const GraphBuilderOptions& options) {
  const std::size_t arrays = options.arrays_per_group;
  DCS_CHECK(arrays > 0);
  DCS_CHECK(matrix.rows() % arrays == 0);
  const std::size_t num_groups = matrix.rows() / arrays;
  const std::size_t num_tables = high == nullptr ? 1 : 2;
  const bool obs = ObsEnabled();
  auto misses = [&] {
    return low.cache_misses() + (high == nullptr ? 0 : high->cache_misses());
  };
  const std::uint64_t misses_before = misses();
  ThreadPool* pool = options.scan.pool;

  // Row weights once; the lambda lookup needs them per pair.
  std::vector<std::uint32_t> row_ones(matrix.rows());
  {
    ScopedStageTimer timer("unaligned_row_weights");
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      row_ones[r] = static_cast<std::uint32_t>(matrix.row(r).CountOnes());
    }
  }

  // Sharded lambda calibration: grow each table's window to the observed
  // row weights and fill every pair of them, so each lookup in the scan
  // below is a window read. A table that has seen these weights before
  // computes nothing here.
  {
    ScopedStageTimer timer("unaligned_lambda_calibrate");
    low.Calibrate(row_ones, pool);
    if (high != nullptr) high->Calibrate(row_ones, pool);
  }
  const std::uint64_t misses_after_calibration = misses();

  // Per-scan setup for the tile test: each row's word pointer, so a group
  // pair is counted straight from the matrix; each row's column offset
  // into `low`'s window rows; and each group's non-zero row count. A zero
  // row reads column 0: its count is 0, which never clears a calibrated
  // cell (every lambda is >= 0), and the walk below skips it anyway.
  const BitKernelOps& kernels = ActiveBitKernels();
  const std::size_t num_words = (matrix.cols() + 63) / 64;
  std::vector<const std::uint64_t*> row_words(matrix.rows());
  std::vector<std::uint32_t> window_col(matrix.rows(), 0);
  std::vector<std::uint32_t> nonzero_rows(num_groups, 0);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    row_words[r] = matrix.row(r).words();
    if (row_ones[r] != 0) {
      window_col[r] = row_ones[r] - low.window_low();
      DCS_CHECK(window_col[r] < low.window_span());
      ++nonzero_rows[r / arrays];
    }
  }

  // The scan proper: every unordered group pair (g1 < g2), sharded over
  // contiguous ascending ranges of g1. Each shard appends candidate edges
  // to its own buffers, so concatenating the buffers in ascending shard
  // order reproduces the serial ascending-(g1, g2) emission order exactly —
  // no mutex, no ordering leak, the same graph at any thread count.
  using Edge = std::pair<std::uint32_t, std::uint32_t>;
  struct ShardState {
    std::vector<Edge> edges[2];
    // The group pair's arrays x arrays common-ones counts, row1-major.
    std::vector<std::uint32_t> tile;
    // Row-pair compares and `high` reads; integer sums are merge-order-free.
    std::uint64_t compares = 0;
    std::uint64_t high_lookups = 0;
  };
  const std::vector<ShardRange> ranges = ShardsFor(pool, num_groups);
  std::vector<ShardState> shards(ranges.size());
  // Hoisted so the shards touch only the lock-free histogram (the name
  // lookup takes the registry mutex once per scan, not per task).
  LatencyHistogram* task_hist =
      obs && pool != nullptr ? &ObsHistogram("stage.pairscan_task.ns")
                             : nullptr;

  auto scan_pair = [&](ShardState& state, std::uint32_t g1,
                       std::uint32_t g2) {
    const std::size_t base1 = g1 * arrays;
    const std::size_t base2 = g2 * arrays;
    std::uint32_t* tile = state.tile.data();
    kernels.and_count_tile(&row_words[base1], arrays, &row_words[base2],
                           arrays, num_words, tile);
    // Nearly every group pair clears nothing, and then the walk below
    // would compare every pair of non-zero rows and stop nowhere, so its
    // compare count is nz1 x nz2.
    if (!TileClearsLow(tile, &row_ones[base1], &window_col[base2], low,
                       arrays)) {
      state.compares += std::uint64_t{nonzero_rows[g1]} * nonzero_rows[g2];
      return;
    }
    // Some pair clears `low`: the exact walk over the tile's counts.
    // Thresholds are consulted in (i, j) order with the zero-row skips, so
    // each table's first clearing pair, and with it the edge, is the one a
    // scan of that table alone would stop at.
    std::uint64_t compares = 0;
    std::uint64_t high_lookups = 0;
    bool low_edge = false;
    [&] {
      for (std::size_t i = 0; i < arrays; ++i) {
        const std::uint32_t ones1 = row_ones[base1 + i];
        if (ones1 == 0) continue;
        for (std::size_t j = 0; j < arrays; ++j) {
          const std::uint32_t ones2 = row_ones[base2 + j];
          if (ones2 == 0) continue;
          ++compares;
          const auto common = static_cast<std::int64_t>(tile[i * arrays + j]);
          if (common <= low.Threshold(ones1, ones2)) continue;
          if (!low_edge) {
            low_edge = true;
            state.edges[0].emplace_back(g1, g2);
          }
          if (high == nullptr) return;  // At most one edge per pair.
          ++high_lookups;
          if (common > high->Threshold(ones1, ones2)) {
            state.edges[1].emplace_back(g1, g2);
            return;  // Both edges found.
          }
        }
      }
    }();
    state.compares += compares;
    state.high_lookups += high_lookups;
  };
  RunShards(pool, ranges, [&](const ShardRange& range) {
    StageStopwatch watch;
    if (task_hist != nullptr) watch.Start();
    ShardState& state = shards[range.index];
    state.tile.resize(arrays * arrays);
    for (std::size_t g1 = range.begin; g1 < range.end; ++g1) {
      for (std::size_t g2 = g1 + 1; g2 < num_groups; ++g2) {
        scan_pair(state, static_cast<std::uint32_t>(g1),
                  static_cast<std::uint32_t>(g2));
      }
    }
    if (task_hist != nullptr) task_hist->Record(watch.ElapsedNanos());
  });

  std::vector<Graph> graphs;
  {
    ScopedStageTimer timer("unaligned_edge_merge");
    for (std::size_t t = 0; t < num_tables; ++t) {
      Graph& graph = graphs.emplace_back(num_groups);
      for (const ShardState& state : shards) {
        for (const auto& [g1, g2] : state.edges[t]) graph.AddEdge(g1, g2);
      }
      graph.Finalize();
    }
  }

  if (obs) {
    std::uint64_t compares = 0;
    std::uint64_t lookups = 0;
    for (const ShardState& state : shards) {
      compares += state.compares;
      lookups += state.compares + state.high_lookups;
    }
    std::uint64_t edges = 0;
    for (const Graph& graph : graphs) edges += graph.num_edges();
    const std::uint64_t scan_misses = misses() - misses_after_calibration;
    const std::uint64_t n = num_groups;
    ObsCounter("pairscan.scans").Increment();
    ObsCounter("pairscan.groups_scanned").Add(n);
    ObsCounter("pairscan.pairs_visited").Add(n * (n - 1) / 2);
    ObsCounter("pairscan.row_pairs_compared").Add(compares);
    ObsCounter("pairscan.edges_emitted").Add(edges);
    ObsCounter("lambda.cache_misses").Add(misses() - misses_before);
    ObsCounter("lambda.lookups").Add(lookups);
    ObsCounter("unaligned.lambda_calibrated_entries")
        .Add(misses_after_calibration - misses_before);
    ObsGauge("unaligned.scan_shards")
        .Set(static_cast<double>(ranges.size()));
    if (lookups > 0) {
      // Hit rate of the scan itself; after calibration this should sit at
      // 1.0, so anything lower flags weights the calibration never saw.
      ObsGauge("lambda.cache_hit_rate")
          .Set(1.0 - static_cast<double>(scan_misses) /
                         static_cast<double>(lookups));
    }
  }
  return graphs;
}

}  // namespace

Graph BuildCorrelationGraph(const BitMatrix& matrix,
                            const LambdaTable& lambda,
                            const GraphBuilderOptions& options) {
  ScopedStageTimer stage("build_correlation_graph");
  return std::move(
      ScanCorrelationGraphs(matrix, lambda, nullptr, options).front());
}

std::pair<Graph, Graph> BuildCorrelationGraphs(
    const BitMatrix& matrix, const LambdaTable& first,
    const LambdaTable& second, const GraphBuilderOptions& options) {
  ScopedStageTimer stage("build_correlation_graphs");
  // A larger p* means a lower threshold everywhere: scan against it first.
  const bool first_is_low = first.p_star() >= second.p_star();
  std::vector<Graph> graphs =
      first_is_low ? ScanCorrelationGraphs(matrix, first, &second, options)
                   : ScanCorrelationGraphs(matrix, second, &first, options);
  if (!first_is_low) std::swap(graphs[0], graphs[1]);
  return {std::move(graphs[0]), std::move(graphs[1])};
}

}  // namespace dcs
