#include "analysis/unaligned_graph_builder.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

// Builds a matrix of `groups` groups x `arrays` rows of `bits` bits, each
// row filled with ~fill ones at random.
BitMatrix RandomGroupMatrix(std::size_t groups, std::size_t arrays,
                            std::size_t bits, double fill, Rng* rng) {
  BitMatrix matrix(groups * arrays, bits);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < bits; ++c) {
      if (rng->Bernoulli(fill)) matrix.Set(r, c);
    }
  }
  return matrix;
}

// Injects a shared signal: `count` common indices set in one row of each
// listed group.
void InjectSignal(BitMatrix* matrix, std::size_t arrays,
                  const std::vector<std::size_t>& groups, std::size_t count,
                  Rng* rng) {
  std::vector<std::size_t> indices;
  while (indices.size() < count) {
    const std::size_t c = rng->UniformInt(matrix->cols());
    indices.push_back(c);
  }
  for (std::size_t g : groups) {
    const std::size_t row = g * arrays;  // First array of the group.
    for (std::size_t c : indices) matrix->Set(row, c);
  }
}

using EdgeList = std::vector<std::pair<Graph::VertexId, Graph::VertexId>>;

// The pair scan as it used to run, brute force: every group pair in
// ascending (g1, g2) order, one scalar AND+popcount and one Threshold()
// per row pair, zero rows skipped, and the same early exits (stop at the
// first pair clearing `low` when there is no `high`; else stop once a pair
// clears `high`). Counts what the scan's counters count.
struct WalkReference {
  EdgeList low_edges;
  EdgeList high_edges;
  std::uint64_t compares = 0;
  std::uint64_t high_lookups = 0;
  std::uint64_t misses = 0;
};

WalkReference ReferenceWalk(const BitMatrix& matrix, std::size_t arrays,
                            const LambdaTable& low, const LambdaTable* high) {
  WalkReference ref;
  const std::size_t groups = matrix.rows() / arrays;
  const std::uint64_t misses_before =
      low.cache_misses() + (high == nullptr ? 0 : high->cache_misses());
  const auto ones = [&](std::size_t row) {
    return static_cast<std::uint32_t>(matrix.row(row).CountOnes());
  };
  for (std::size_t g1 = 0; g1 < groups; ++g1) {
    for (std::size_t g2 = g1 + 1; g2 < groups; ++g2) {
      bool low_edge = false;
      bool done = false;
      for (std::size_t i = 0; i < arrays && !done; ++i) {
        const std::size_t r1 = g1 * arrays + i;
        if (ones(r1) == 0) continue;
        for (std::size_t j = 0; j < arrays && !done; ++j) {
          const std::size_t r2 = g2 * arrays + j;
          if (ones(r2) == 0) continue;
          ++ref.compares;
          const auto common = static_cast<std::int64_t>(
              matrix.row(r1).CommonOnes(matrix.row(r2)));
          if (common <= low.Threshold(ones(r1), ones(r2))) continue;
          const auto edge = std::make_pair(static_cast<Graph::VertexId>(g1),
                                           static_cast<Graph::VertexId>(g2));
          if (!low_edge) {
            low_edge = true;
            ref.low_edges.push_back(edge);
          }
          if (high == nullptr) {
            done = true;
            continue;
          }
          ++ref.high_lookups;
          if (common > high->Threshold(ones(r1), ones(r2))) {
            ref.high_edges.push_back(edge);
            done = true;
          }
        }
      }
    }
  }
  ref.misses = low.cache_misses() +
               (high == nullptr ? 0 : high->cache_misses()) - misses_before;
  return ref;
}

// The scan's counters, as deltas around one build.
struct ScanCounters {
  std::uint64_t compares = 0;
  std::uint64_t edges = 0;
  std::uint64_t lookups = 0;
  double hit_rate = -1.0;

  static ScanCounters Now() {
    return {ObsCounter("pairscan.row_pairs_compared").value(),
            ObsCounter("pairscan.edges_emitted").value(),
            ObsCounter("lambda.lookups").value(),
            ObsGauge("lambda.cache_hit_rate").value()};
  }
  ScanCounters Since(const ScanCounters& before) const {
    return {compares - before.compares, edges - before.edges,
            lookups - before.lookups, hit_rate};
  }
};

// `groups` groups of `arrays` rows at ~1/4 fill with a planted cluster
// (every fifth group shares `bits` / 4 indices in one row) and zero rows:
// every seventh row, and all of group 2 — so pairs meet zero rows in
// either group, and some groups of one row are empty.
BitMatrix ClusterMatrixWithZeroRows(std::size_t groups, std::size_t arrays,
                                    std::size_t bits, Rng* rng) {
  BitMatrix matrix = RandomGroupMatrix(groups, arrays, bits, 0.25, rng);
  std::vector<std::size_t> cluster;
  for (std::size_t g = 0; g < groups; g += 5) cluster.push_back(g);
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < bits / 4; ++k) {
    indices.push_back(rng->UniformInt(bits));
  }
  for (std::size_t g : cluster) {
    const std::size_t row = g * arrays + g % arrays;
    for (std::size_t c : indices) matrix.Set(row, c);
  }
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    if (r % 7 == 3 || r / arrays == 2) matrix.row(r).Reset();
  }
  return matrix;
}

// The tile-counted, row-tested scan must reproduce the walk exactly: both
// graphs' edges and every pairscan.* / lambda.* figure, serially and
// pooled, for arrays of 1-17 rows (arrays x arrays tiles, ragged against
// the kernels' 4- and 8-word strides) and row widths with and without a
// ragged last word.
TEST(GraphBuilderTest, TileScanEqualsTheReferenceWalk) {
  const bool was_enabled = ObsEnabled();
  MetricsRegistry::Global().set_enabled(true);
  ThreadPool pool(4);
  std::uint64_t seed = 40;
  std::size_t high_edges = 0;
  std::size_t low_only_edges = 0;
  for (const std::size_t arrays : {1u, 4u, 10u, 17u}) {
    for (const std::size_t bits : {64u, 1000u, 1024u}) {
      Rng rng(++seed);
      const std::size_t groups = 24;
      const BitMatrix matrix =
          ClusterMatrixWithZeroRows(groups, arrays, bits, &rng);
      const double n = static_cast<double>(groups);
      const double er_p = LambdaTable::PStarFromEdgeProb(0.665 / n, arrays);
      const double core_p = LambdaTable::PStarFromEdgeProb(8.2 / n, arrays);

      std::vector<std::uint32_t> weights;
      for (std::size_t r = 0; r < matrix.rows(); ++r) {
        weights.push_back(
            static_cast<std::uint32_t>(matrix.row(r).CountOnes()));
      }
      const LambdaTable ref_er(bits, er_p);
      const LambdaTable ref_core(bits, core_p);
      ref_er.Calibrate(weights, nullptr);
      ref_core.Calibrate(weights, nullptr);
      // The core table has the larger p*, so the fused scan tests it first.
      const WalkReference fused =
          ReferenceWalk(matrix, arrays, ref_core, &ref_er);
      const WalkReference single = ReferenceWalk(matrix, arrays, ref_er,
                                                 nullptr);
      ASSERT_EQ(fused.misses, 0u);
      ASSERT_EQ(single.misses, 0u);

      for (ThreadPool* scan_pool : {static_cast<ThreadPool*>(nullptr),
                                    &pool}) {
        const std::string where =
            "arrays=" + std::to_string(arrays) + " bits=" +
            std::to_string(bits) + (scan_pool == nullptr ? " serial"
                                                         : " pool");
        GraphBuilderOptions opts;
        opts.arrays_per_group = arrays;
        opts.scan.pool = scan_pool;

        ScanCounters before = ScanCounters::Now();
        const auto [er, core] = BuildCorrelationGraphs(
            matrix, LambdaTable(bits, er_p), LambdaTable(bits, core_p), opts);
        ScanCounters got = ScanCounters::Now().Since(before);
        EXPECT_EQ(er.edges(), fused.high_edges) << where;
        EXPECT_EQ(core.edges(), fused.low_edges) << where;
        EXPECT_EQ(got.compares, fused.compares) << where;
        EXPECT_EQ(got.edges,
                  fused.low_edges.size() + fused.high_edges.size())
            << where;
        EXPECT_EQ(got.lookups, fused.compares + fused.high_lookups) << where;
        if (got.lookups > 0) {
          EXPECT_EQ(got.hit_rate, 1.0) << where;
        }

        before = ScanCounters::Now();
        const Graph alone =
            BuildCorrelationGraph(matrix, LambdaTable(bits, er_p), opts);
        got = ScanCounters::Now().Since(before);
        EXPECT_EQ(alone.edges(), single.low_edges) << where;
        EXPECT_EQ(got.compares, single.compares) << where;
        EXPECT_EQ(got.edges, single.low_edges.size()) << where;
        EXPECT_EQ(got.lookups, single.compares) << where;
        if (got.lookups > 0) {
          EXPECT_EQ(got.hit_rate, 1.0) << where;
        }
      }
      high_edges += fused.high_edges.size();
      low_only_edges += fused.low_edges.size() - fused.high_edges.size();
    }
  }
  // The sweep exercises both exits of the walk: pairs that clear both
  // tables and pairs that clear only the lower one.
  EXPECT_GT(high_edges, 0u);
  EXPECT_GT(low_only_edges, 0u);
  MetricsRegistry::Global().set_enabled(was_enabled);
}

TEST(GraphBuilderTest, NoSignalMeansSparseGraph) {
  Rng rng(1);
  BitMatrix matrix = RandomGroupMatrix(40, 4, 512, 0.45, &rng);
  LambdaTable lambda(512, 1e-6);
  GraphBuilderOptions opts;
  opts.arrays_per_group = 4;
  const Graph graph = BuildCorrelationGraph(matrix, lambda, opts);
  EXPECT_EQ(graph.num_vertices(), 40u);
  // 780 group pairs x 16 row pairs x 1e-6 ~ 0.012 expected edges.
  EXPECT_LE(graph.num_edges(), 1u);
}

TEST(GraphBuilderTest, InjectedSignalCreatesEdges) {
  // At lower fill (the weak-signal effect makes a 60-index signal invisible
  // inside 45%-full rows — exactly the paper's motivation for flow
  // splitting), 100 shared indices in 20%-full rows are decisive.
  Rng rng(2);
  BitMatrix matrix = RandomGroupMatrix(40, 4, 512, 0.20, &rng);
  InjectSignal(&matrix, 4, {3, 17, 29}, 100, &rng);
  LambdaTable lambda(512, 1e-6);
  GraphBuilderOptions opts;
  opts.arrays_per_group = 4;
  const Graph graph = BuildCorrelationGraph(matrix, lambda, opts);
  // The three signal groups form a triangle.
  auto has_edge = [&](Graph::VertexId a, Graph::VertexId b) {
    for (Graph::VertexId w : graph.neighbors(a)) {
      if (w == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge(3, 17));
  EXPECT_TRUE(has_edge(3, 29));
  EXPECT_TRUE(has_edge(17, 29));
}

TEST(GraphBuilderTest, ParallelMatchesSerial) {
  Rng rng(3);
  BitMatrix matrix = RandomGroupMatrix(30, 3, 256, 0.4, &rng);
  InjectSignal(&matrix, 3, {1, 20}, 40, &rng);
  LambdaTable lambda(256, 1e-5);
  GraphBuilderOptions serial;
  serial.arrays_per_group = 3;
  const Graph g1 = BuildCorrelationGraph(matrix, lambda, serial);

  ThreadPool pool(4);
  GraphBuilderOptions parallel = serial;
  parallel.scan.pool = &pool;
  const Graph g2 = BuildCorrelationGraph(matrix, lambda, parallel);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(GraphBuilderTest, FewerThanThreeGroupsDoNotAbort) {
  // 0, 1 and 2 groups: no pair, no pair, one pair. Both builds must return
  // a graph over exactly those groups, serially and on a pool with more
  // threads than groups.
  ThreadPool pool(4);
  for (ThreadPool* scan_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (std::size_t groups = 0; groups <= 2; ++groups) {
      Rng rng(6 + groups);
      BitMatrix matrix = RandomGroupMatrix(groups, 2, 256, 0.2, &rng);
      if (groups == 2) InjectSignal(&matrix, 2, {0, 1}, 120, &rng);
      GraphBuilderOptions opts;
      opts.arrays_per_group = 2;
      opts.scan.pool = scan_pool;
      const std::string where = std::to_string(groups) + " groups, " +
                                (scan_pool == nullptr ? "serial" : "pool");
      const EdgeList expected_edges =
          groups == 2 ? EdgeList{{0, 1}} : EdgeList{};

      const Graph single =
          BuildCorrelationGraph(matrix, LambdaTable(256, 1e-6), opts);
      EXPECT_EQ(single.num_vertices(), groups) << where;
      EXPECT_EQ(single.edges(), expected_edges) << where;

      const auto [sparse, dense] = BuildCorrelationGraphs(
          matrix, LambdaTable(256, 1e-6), LambdaTable(256, 1e-3), opts);
      EXPECT_EQ(sparse.num_vertices(), groups) << where;
      EXPECT_EQ(dense.num_vertices(), groups) << where;
      EXPECT_EQ(sparse.edges(), expected_edges) << where;
      EXPECT_EQ(dense.edges(), expected_edges) << where;
    }
  }
}

TEST(GraphBuilderTest, LowerFillRowsUseLowerThresholds) {
  // Two groups share 40 common ones in rows that are only ~15% full; with
  // per-(i,j) thresholds this is a blazing signal, while a fixed
  // half-full-calibrated threshold would miss it.
  Rng rng(5);
  BitMatrix matrix = RandomGroupMatrix(10, 2, 512, 0.15, &rng);
  InjectSignal(&matrix, 2, {2, 7}, 40, &rng);
  LambdaTable lambda(512, 1e-6);
  GraphBuilderOptions opts;
  opts.arrays_per_group = 2;
  const Graph graph = BuildCorrelationGraph(matrix, lambda, opts);
  bool found = false;
  for (const auto& [u, v] : graph.edges()) {
    if (u == 2 && v == 7) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dcs
