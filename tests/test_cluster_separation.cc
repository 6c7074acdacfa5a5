#include "analysis/cluster_separation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/unaligned_detector.h"
#include "common/rng.h"
#include "graph/er_random.h"

namespace dcs {
namespace {

TEST(ClusterSeparationTest, SplitsTwoDisjointCliques) {
  Graph g(20);
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = i + 1; j < 5; ++j) g.AddEdge(i, j);
  }
  for (std::uint32_t i = 10; i < 14; ++i) {
    for (std::uint32_t j = i + 1; j < 14; ++j) g.AddEdge(i, j);
  }
  g.Finalize();
  const std::vector<Graph::VertexId> detected = {0, 1, 2,  3,  4,
                                                 10, 11, 12, 13};
  const auto clusters =
      SeparateClusters(g, detected, ClusterSeparationOptions{});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<Graph::VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(clusters[1], (std::vector<Graph::VertexId>{10, 11, 12, 13}));
}

TEST(ClusterSeparationTest, DropsSingletonNoise) {
  Graph g(10);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.Finalize();
  // Vertex 7 was dragged in by expansion but connects to nothing detected.
  const std::vector<Graph::VertexId> detected = {0, 1, 2, 7};
  const auto clusters =
      SeparateClusters(g, detected, ClusterSeparationOptions{});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<Graph::VertexId>{0, 1, 2}));
}

TEST(ClusterSeparationTest, LargestFirstOrdering) {
  Graph g(30);
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = i + 1; j < 4; ++j) g.AddEdge(i, j);
  }
  for (std::uint32_t i = 20; i < 27; ++i) {
    for (std::uint32_t j = i + 1; j < 27; ++j) g.AddEdge(i, j);
  }
  g.Finalize();
  std::vector<Graph::VertexId> detected = {0, 1, 2, 3};
  for (std::uint32_t v = 20; v < 27; ++v) detected.push_back(v);
  const auto clusters =
      SeparateClusters(g, detected, ClusterSeparationOptions{});
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 7u);
  EXPECT_EQ(clusters[1].size(), 4u);
}

TEST(ClusterSeparationTest, EmptyDetectionYieldsNoClusters) {
  Graph g(5);
  g.Finalize();
  EXPECT_TRUE(
      SeparateClusters(g, {}, ClusterSeparationOptions{}).empty());
}

TEST(ClusterSeparationTest, IgnoresEdgesToUndetectedVertices) {
  Graph g(6);
  // 0-1 detected; both connect to undetected hub 5, not to each other.
  g.AddEdge(0, 5);
  g.AddEdge(1, 5);
  g.Finalize();
  ClusterSeparationOptions opts;
  opts.min_cluster_size = 1;
  const auto clusters = SeparateClusters(g, {0, 1}, opts);
  // Two singletons: the hub must not glue them.
  EXPECT_EQ(clusters.size(), 2u);
}

// Shared fixture: two contents planted in disjoint group sets of one graph.
struct TwoContentGraph {
  Graph graph{0};
  std::vector<Graph::VertexId> first;
  std::vector<Graph::VertexId> second;
};

TwoContentGraph MakeTwoContentGraph(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 8000;
  const double p1 = 8.2 / static_cast<double>(n);
  PlantedGraph planted = SamplePlantedGraph(n, p1, 70, 0.25, &rng);
  TwoContentGraph result;
  result.first = planted.pattern_vertices;
  for (Graph::VertexId v = 0; result.second.size() < 60; ++v) {
    if (!std::binary_search(result.first.begin(), result.first.end(), v)) {
      result.second.push_back(v);
    }
  }
  AddPlantedClique(&planted.graph, result.second, 0.25, &rng);
  planted.graph.Finalize();
  result.graph = std::move(planted.graph);
  return result;
}

std::size_t Overlap(const std::vector<Graph::VertexId>& a,
                    const std::vector<Graph::VertexId>& b) {
  std::vector<Graph::VertexId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.size();
}

TEST(ClusterSeparationTest, WideCoreMixedClusterIsSeparated) {
  // With beta large enough for both contents, the single core mixes them;
  // separation with triangle support recovers the two sets.
  const TwoContentGraph tc = MakeTwoContentGraph(3);
  UnalignedDetectorOptions detector;
  detector.beta = 140;  // Room for both patterns.
  detector.expand_min_edges = 2;
  const UnalignedDetection detection =
      DetectUnalignedPattern(tc.graph, detector);
  // Sanity: the detection holds vertices from both contents.
  ASSERT_GT(Overlap(detection.detected, tc.first), 40u);
  ASSERT_GT(Overlap(detection.detected, tc.second), 30u);

  ClusterSeparationOptions sep;
  sep.min_cluster_size = 10;
  // Random background edges between the two clusters (~4 expected here)
  // would merge them; triangle support severs those bridges.
  sep.min_common_neighbors = 2;
  const auto clusters = SeparateClusters(tc.graph, detection.detected, sep);
  ASSERT_GE(clusters.size(), 2u);
  const std::size_t c0_first = Overlap(clusters[0], tc.first);
  const std::size_t c0_second = Overlap(clusters[0], tc.second);
  const std::size_t c1_first = Overlap(clusters[1], tc.first);
  const std::size_t c1_second = Overlap(clusters[1], tc.second);
  EXPECT_TRUE((c0_first > 3 * c0_second && c1_second > 3 * c1_first) ||
              (c0_second > 3 * c0_first && c1_first > 3 * c1_second))
      << c0_first << " " << c0_second << " / " << c1_first << " "
      << c1_second;
}

}  // namespace
}  // namespace dcs
