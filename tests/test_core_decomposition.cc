#include "graph/core_decomposition.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/er_random.h"
#include "peel_fixtures.h"

namespace dcs {
namespace {

using peel_fixtures::CompleteBipartite;
using peel_fixtures::Cycle;
using peel_fixtures::ErGraph;
using peel_fixtures::Grid;
using peel_fixtures::OrderFingerprint;

Graph CliquePlusTail(std::size_t clique, std::size_t tail) {
  // Vertices [0, clique) form a clique; [clique, clique+tail) a path
  // hanging off vertex 0.
  Graph g(clique + tail);
  for (std::uint32_t i = 0; i < clique; ++i) {
    for (std::uint32_t j = i + 1; j < clique; ++j) g.AddEdge(i, j);
  }
  std::uint32_t prev = 0;
  for (std::uint32_t t = 0; t < tail; ++t) {
    const auto v = static_cast<std::uint32_t>(clique + t);
    g.AddEdge(prev, v);
    prev = v;
  }
  g.Finalize();
  return g;
}

TEST(FindCoreTest, MinDegreePeelingKeepsTheClique) {
  const Graph g = CliquePlusTail(8, 30);
  const PeelResult result = FindCore(g, 8);
  ASSERT_EQ(result.core.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.core[i], i);
  }
  EXPECT_EQ(result.removal_order.size(), 30u);
}

TEST(FindCoreTest, BetaLargerThanGraphReturnsEverything) {
  const Graph g = CliquePlusTail(4, 2);
  const PeelResult result = FindCore(g, 100);
  EXPECT_EQ(result.core.size(), 6u);
  EXPECT_TRUE(result.removal_order.empty());
}

TEST(FindCoreTest, BetaZeroRemovesEverything) {
  const Graph g = CliquePlusTail(3, 3);
  const PeelResult result = FindCore(g, 0);
  EXPECT_TRUE(result.core.empty());
  EXPECT_EQ(result.removal_order.size(), 6u);
}

TEST(FindCoreTest, RemovalOrderPlusCoreIsAPartition) {
  const Graph g = CliquePlusTail(6, 10);
  const PeelResult result = FindCore(g, 5);
  std::vector<Graph::VertexId> all = result.core;
  all.insert(all.end(), result.removal_order.begin(),
             result.removal_order.end());
  std::sort(all.begin(), all.end());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(all[v], v);
  }
}

TEST(FindCoreTest, TailPeeledBeforeCliqueEverStarts) {
  const Graph g = CliquePlusTail(5, 20);
  const PeelResult result = FindCore(g, 5);
  // All removed vertices are tail vertices (ids >= 5).
  for (Graph::VertexId v : result.removal_order) {
    EXPECT_GE(v, 5u);
  }
}

TEST(PeelStrategyTest, MaxDegreeDestroysTheClique) {
  const Graph g = CliquePlusTail(8, 30);
  const PeelResult result =
      PeelToSize(g, 8, PeelStrategy::kMaxDegree, nullptr);
  // Max-degree peeling eats the clique first; the survivors are mostly
  // tail vertices.
  std::size_t clique_survivors = 0;
  for (Graph::VertexId v : result.core) {
    if (v < 8) ++clique_survivors;
  }
  EXPECT_LT(clique_survivors, 4u);
}

TEST(PeelStrategyTest, RandomPeelingIsBetweenTheTwo) {
  Rng rng(42);
  const Graph g = CliquePlusTail(10, 90);
  int survivors_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const PeelResult result =
        PeelToSize(g, 10, PeelStrategy::kRandom, &rng);
    for (Graph::VertexId v : result.core) {
      if (v < 10) ++survivors_total;
    }
  }
  // Random keeps ~10% of clique vertices per slot on average: far fewer
  // than min-degree (all 10) but typically more than max-degree (~0).
  EXPECT_GT(survivors_total, 10);
  EXPECT_LT(survivors_total, 400);
}

TEST(PeelStrategyTest, MinDegreeBeatsBaselinesOnPlantedPattern) {
  // The stochastic-optimality claim, checked empirically: min-degree
  // peeling retains more pattern vertices than random or max-degree.
  Rng rng(7);
  std::size_t kept_min = 0;
  std::size_t kept_rand = 0;
  std::size_t kept_max = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const PlantedGraph planted = SamplePlantedGraph(
        2000, 1.0 / 2000.0, 60, 0.25, &rng);
    std::vector<char> in_pattern(2000, 0);
    for (Graph::VertexId v : planted.pattern_vertices) in_pattern[v] = 1;
    auto count_kept = [&](PeelStrategy strategy) {
      const PeelResult r = PeelToSize(planted.graph, 40, strategy, &rng);
      std::size_t kept = 0;
      for (Graph::VertexId v : r.core) {
        kept += static_cast<std::size_t>(in_pattern[v]);
      }
      return kept;
    };
    kept_min += count_kept(PeelStrategy::kMinDegree);
    kept_rand += count_kept(PeelStrategy::kRandom);
    kept_max += count_kept(PeelStrategy::kMaxDegree);
  }
  EXPECT_GT(kept_min, kept_rand);
  EXPECT_GE(kept_rand, kept_max);
  // And min-degree actually finds most of the pattern.
  EXPECT_GT(kept_min, 10u * 30);
}

TEST(PeelStrategyTest, DeterministicForDegreeStrategies) {
  const Graph g = CliquePlusTail(6, 12);
  const PeelResult a = PeelToSize(g, 6, PeelStrategy::kMinDegree, nullptr);
  const PeelResult b = PeelToSize(g, 6, PeelStrategy::kMinDegree, nullptr);
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.removal_order, b.removal_order);
}

// ---------- Wave peel on tie-heavy graphs ----------
//
// The min-degree peel removes whole k-core complements (sets that do not
// depend on how degree ties fall) and only the final partial wave under a
// strict (degree, id) order. The fixtures (peel_fixtures.h) maximize ties;
// each pins the peel's removal order (by length and fingerprint), wave
// count and strict-tail count, so any change to the order shows here.

// The peel must partition the vertices: core ∪ removal_order = V, disjoint.
void ExpectPartition(const PeelResult& result, std::size_t n,
                     std::size_t beta) {
  EXPECT_EQ(result.core.size() + result.removal_order.size(), n);
  if (n > beta) {
    EXPECT_EQ(result.core.size(), beta);
  }
  std::vector<char> seen(n, 0);
  for (Graph::VertexId v : result.core) {
    EXPECT_EQ(seen[v], 0);
    seen[v] = 1;
  }
  for (Graph::VertexId v : result.removal_order) {
    EXPECT_EQ(seen[v], 0);
    seen[v] = 1;
  }
}

struct PinnedPeel {
  std::size_t beta;
  std::uint64_t order_fingerprint;
  std::size_t waves;
  std::size_t tail_removals;
};

void ExpectPinnedPeels(const Graph& g, const std::vector<PinnedPeel>& pins) {
  for (const PinnedPeel& pin : pins) {
    const PeelResult result = FindCore(g, pin.beta);
    ExpectPartition(result, g.num_vertices(), pin.beta);
    EXPECT_EQ(OrderFingerprint(result.removal_order), pin.order_fingerprint)
        << "beta " << pin.beta;
    EXPECT_EQ(result.waves, pin.waves) << "beta " << pin.beta;
    EXPECT_EQ(result.tail_removals, pin.tail_removals) << "beta " << pin.beta;
  }
}

TEST(WavePeelTest, CycleAllDecisionsAreTies) {
  ExpectPinnedPeels(Cycle(5000), {{0, 0x87583885f1a6a053ULL, 1, 0},
                                  {100, 0x8f39cdab85faa0cfULL, 0, 4900},
                                  {2500, 0x8c85cf80bb72692fULL, 0, 2500},
                                  {4999, 0x315446a086a23133ULL, 0, 1}});
}

TEST(WavePeelTest, GridCascadingWaves) {
  ExpectPinnedPeels(Grid(70, 70), {{0, 0x8543b910b9801b67ULL, 1, 0},
                                   {50, 0xb9b299d8df0ccf46ULL, 1, 10},
                                   {1000, 0xdc45dfd572fec7fcULL, 1, 12}});
}

TEST(WavePeelTest, CompleteBipartiteTwoGiantBuckets) {
  ExpectPinnedPeels(CompleteBipartite(60, 60),
                    {{10, 0xed41805fec6682d7ULL, 0, 110},
                     {30, 0x565a079de5538607ULL, 0, 90},
                     {90, 0x93233ba8bc453597ULL, 0, 30}});
}

TEST(WavePeelTest, SparseRandomGraphs) {
  const std::vector<std::vector<PinnedPeel>> pins = {
      {{0, 0x9e2c184cb78eb977ULL, 3, 0},
       {10, 0x14030cf10b075d4cULL, 3, 7},
       {500, 0x2526f9669dec9916ULL, 3, 60}},
      {{0, 0xe762abf84345607bULL, 3, 0},
       {10, 0x6bd81748a51b03c0ULL, 3, 26},
       {500, 0x957ca688272c33b6ULL, 3, 86}},
      {{0, 0x8146ca7de33e4413ULL, 3, 0},
       {10, 0x84be525222341b63ULL, 3, 4},
       {500, 0xf7e3c3f44b0452e3ULL, 3, 40}},
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectPinnedPeels(ErGraph(3000, 3.0 / 3000.0, seed, 0), pins[seed - 1]);
  }
}

TEST(WavePeelTest, PlantedCliqueInNoiseIsTheCore) {
  // ER noise around a 40-clique: the peel converges on the clique.
  const std::size_t clique = 40;
  const Graph g = ErGraph(4096, 2.0 / 4096.0, 7, clique);
  const PeelResult result = FindCore(g, clique);
  ASSERT_EQ(result.core.size(), clique);
  for (std::size_t i = 0; i < clique; ++i) {
    EXPECT_EQ(result.core[i], static_cast<Graph::VertexId>(i));
  }
  ExpectPinnedPeels(g, {{clique, 0x13bfa2034e3bca27ULL, 3, 0}});
  ExpectPinnedPeels(ErGraph(2500, 4.0 / 2500.0, 11, 20),
                    {{20, 0xca90e917a715af5bULL, 4, 0}});
}

TEST(WavePeelTest, StrictTailHandlesOvershootingWave) {
  // In a cycle the very first wave (degree 2) would cascade through every
  // vertex, overshooting beta — the whole peel runs in the strict tail.
  ExpectPinnedPeels(Cycle(64), {{10, 0x5a74206ea4ec5cd2ULL, 0, 54}});
}

TEST(WavePeelTest, EdgelessGraphPeelsByIdUnderTies) {
  // Every degree is 0; one wave would remove everything, so the tail rules
  // and the strict (degree, id) order must remove ascending ids.
  Graph g(20);
  g.Finalize();
  const PeelResult result = FindCore(g, 5);
  ASSERT_EQ(result.removal_order.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(result.removal_order[i], static_cast<Graph::VertexId>(i));
  }
  ExpectPinnedPeels(g, {{5, 0x903c0fe5f130c9dcULL, 0, 15}});
}

TEST(WavePeelTest, DegenerateInputsAreSafe) {
  Graph empty(0);
  empty.Finalize();
  EXPECT_TRUE(FindCore(empty, 0).core.empty());
  Graph one(1);
  one.Finalize();
  EXPECT_EQ(FindCore(one, 0).removal_order.size(), 1u);
  // beta >= n: nothing to peel.
  const PeelResult whole = FindCore(Cycle(8), 8);
  EXPECT_EQ(whole.core.size(), 8u);
  EXPECT_TRUE(whole.removal_order.empty());
}

}  // namespace
}  // namespace dcs
