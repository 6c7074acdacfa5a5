// Min-degree peels on pool workers. FindCore runs serially inside one call,
// but the thread that calls it may be any pool worker, and several peels may
// run at once (one per shard of a RunShards batch), on distinct graphs or on
// one shared const graph. Each peel must stay a pure function of
// (graph, beta): core, removal_order, wave and tail counts bit-identical to
// the same call on the test thread, whatever pool ran it and whatever ran
// beside it. Under ThreadSanitizer this also shows the peel keeps no shared
// mutable state. The graphs maximize degree ties (peel_fixtures.h).

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/core_decomposition.h"
#include "graph/graph.h"
#include "peel_fixtures.h"

namespace dcs {
namespace {

using peel_fixtures::CompleteBipartite;
using peel_fixtures::Cycle;
using peel_fixtures::ErGraph;
using peel_fixtures::Grid;

struct PeelCase {
  const Graph* graph;
  std::size_t beta;
};

// Runs every case as its own shard, so on a pool the peels run concurrently.
std::vector<PeelResult> PeelAll(ThreadPool* pool,
                                const std::vector<PeelCase>& cases) {
  std::vector<PeelResult> results(cases.size());
  RunShards(pool, MakeShards(cases.size(), cases.size()),
            [&](const ShardRange& shard) {
              for (std::size_t i = shard.begin; i < shard.end; ++i) {
                results[i] = FindCore(*cases[i].graph, cases[i].beta);
              }
            });
  return results;
}

void ExpectSamePeel(const PeelResult& expected, const PeelResult& actual,
                    const std::string& where) {
  EXPECT_EQ(expected.core, actual.core) << where;
  EXPECT_EQ(expected.removal_order, actual.removal_order) << where;
  EXPECT_EQ(expected.waves, actual.waves) << where;
  EXPECT_EQ(expected.tail_removals, actual.tail_removals) << where;
}

class PeelingParallelTest : public ::testing::Test {
 protected:
  PeelingParallelTest() : pool1_(1), pool2_(2), pool8_(8) {}

  // Every case peeled concurrently on pools of 1, 2 and 8 threads must
  // match the same case peeled on the test thread.
  void ExpectPoolsMatchCaller(const std::vector<PeelCase>& cases) {
    std::vector<PeelResult> reference;
    for (const PeelCase& c : cases) {
      reference.push_back(FindCore(*c.graph, c.beta));
    }
    for (ThreadPool* pool : {&pool1_, &pool2_, &pool8_}) {
      const std::vector<PeelResult> pooled = PeelAll(pool, cases);
      ASSERT_EQ(pooled.size(), cases.size());
      for (std::size_t i = 0; i < cases.size(); ++i) {
        ExpectSamePeel(reference[i], pooled[i],
                       "case " + std::to_string(i) + ", " +
                           std::to_string(pool->num_threads()) + " threads");
      }
    }
  }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

TEST_F(PeelingParallelTest, TieHeavyGraphsPeelAlikeOnEveryPool) {
  const Graph cycle = Cycle(5000);
  const Graph grid = Grid(70, 70);
  const Graph bipartite = CompleteBipartite(60, 60);
  const Graph er1 = ErGraph(3000, 3.0 / 3000.0, 1, 0);
  const Graph er2 = ErGraph(3000, 3.0 / 3000.0, 2, 0);
  const Graph er3 = ErGraph(3000, 3.0 / 3000.0, 3, 0);
  ExpectPoolsMatchCaller({{&cycle, 0},      {&cycle, 100},
                          {&cycle, 2500},   {&cycle, 4999},
                          {&grid, 0},       {&grid, 50},
                          {&grid, 1000},    {&bipartite, 10},
                          {&bipartite, 30}, {&bipartite, 90},
                          {&er1, 0},        {&er1, 10},
                          {&er1, 500},      {&er2, 10},
                          {&er3, 500}});
}

TEST_F(PeelingParallelTest, OneSharedGraphPeeledConcurrently) {
  // Sixteen peels of the same const graph at once, half of them to a
  // different beta, so concurrent calls read one adjacency structure.
  const Graph g = ErGraph(2500, 4.0 / 2500.0, 11, 20);
  std::vector<PeelCase> cases;
  for (std::size_t i = 0; i < 16; ++i) {
    cases.push_back({&g, i % 2 == 0 ? std::size_t{20} : std::size_t{200}});
  }
  ExpectPoolsMatchCaller(cases);
}

TEST_F(PeelingParallelTest, PlantedCliqueSurvivesOnEveryWorker) {
  // ER noise around a 40-clique: every concurrent peel converges on it.
  const std::size_t clique = 40;
  const Graph g = ErGraph(4096, 2.0 / 4096.0, 7, clique);
  const std::vector<PeelCase> cases(8, PeelCase{&g, clique});
  for (const PeelResult& result : PeelAll(&pool8_, cases)) {
    ASSERT_EQ(result.core.size(), clique);
    for (std::size_t i = 0; i < clique; ++i) {
      EXPECT_EQ(result.core[i], static_cast<Graph::VertexId>(i));
    }
  }
  ExpectPoolsMatchCaller(cases);
}

TEST_F(PeelingParallelTest, StrictTailAndEdgelessPeelsOnEveryPool) {
  // A 64-cycle to 10 runs wholly in the strict tail; an edgeless graph
  // peels by ascending id.
  const Graph cycle = Cycle(64);
  Graph edgeless(20);
  edgeless.Finalize();
  const std::vector<PeelResult> results =
      PeelAll(&pool8_, {{&cycle, 10}, {&edgeless, 5}});
  EXPECT_EQ(results[0].waves, 0u);
  EXPECT_EQ(results[0].tail_removals, 54u);
  ASSERT_EQ(results[1].removal_order.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(results[1].removal_order[i], static_cast<Graph::VertexId>(i));
  }
  ExpectPoolsMatchCaller({{&cycle, 10}, {&edgeless, 5}});
}

TEST_F(PeelingParallelTest, DegenerateInputsAreSafeOnPools) {
  Graph empty(0);
  empty.Finalize();
  Graph one(1);
  one.Finalize();
  const Graph cycle = Cycle(8);
  for (ThreadPool* pool : {&pool1_, &pool2_, &pool8_}) {
    const std::vector<PeelResult> results =
        PeelAll(pool, {{&empty, 0}, {&one, 0}, {&cycle, 8}});
    EXPECT_TRUE(results[0].core.empty());
    EXPECT_EQ(results[1].removal_order.size(), 1u);
    // beta >= n: nothing to peel.
    EXPECT_EQ(results[2].core.size(), 8u);
    EXPECT_TRUE(results[2].removal_order.empty());
  }
}

}  // namespace
}  // namespace dcs
