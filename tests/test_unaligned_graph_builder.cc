#include "analysis/unaligned_graph_builder.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

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
  using EdgeList = std::vector<std::pair<Graph::VertexId, Graph::VertexId>>;
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
