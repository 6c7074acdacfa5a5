#include "graph/core_decomposition.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>

#include "common/logging.h"

namespace dcs {
namespace {

// Scans below this size run inline even when a pool is available: the
// shard bookkeeping would cost more than the scan. Purely a scheduling
// choice — the partition below is contiguous ascending ranges either way,
// so results never depend on which path ran.
constexpr std::size_t kMinParallelScan = 2048;

// Canonical wave peeling for kMinDegree (see docs/PARALLELISM.md).
//
// At the current minimum degree d, the set of vertices a min-degree peel
// removes before the residual minimum first exceeds d is the complement of
// the (d+1)-core — a graph invariant, identical under every tie-break. The
// wave removes that set in cascade rounds (round 0: every alive vertex at
// degree <= d; round k+1: neighbors dragged to <= d by round k), each round
// in ascending vertex id. Only the final wave, which would drop the graph
// below beta, is peeled one vertex at a time under a strict (degree, id)
// order. Serial and sharded execution run this same algorithm; the sharded
// scans merge per-shard results in ascending shard order (concatenation of
// contiguous ranges) or by min(), so the output is bit-identical at any
// thread count.
PeelResult PeelMinDegreeWaves(const Graph& graph, std::size_t beta,
                              ThreadPool* pool) {
  const std::size_t n = graph.num_vertices();
  PeelResult result;
  if (n == 0) return result;

  // Every whole-graph scan below shares one vertex partition.
  ThreadPool* const vertex_pool = n >= kMinParallelScan ? pool : nullptr;
  const std::vector<ShardRange> vertex_shards = ShardsFor(vertex_pool, n);

  // Residual degrees, sharded (pure per-vertex writes).
  std::vector<std::size_t> degree(n);
  RunShards(vertex_pool, vertex_shards, [&](const ShardRange& shard) {
    for (std::size_t v = shard.begin; v < shard.end; ++v) {
      degree[v] = graph.degree(static_cast<Graph::VertexId>(v));
    }
  });

  std::vector<char> removed(n, 0);
  // Cascade-round stamp per vertex: lets the degree update test "was this
  // neighbor removed in the current round" without an O(n) clear per round.
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t round = 0;
  std::size_t alive = n;
  if (n > beta) result.removal_order.reserve(n - beta);

  std::vector<Graph::VertexId> frontier;
  std::vector<Graph::VertexId> candidates;
  bool tail = false;

  while (alive > beta && !tail) {
    // Minimum residual degree among alive vertices. Per-shard minima merge
    // with min(), which is insensitive to merge order.
    std::size_t wave_degree = std::numeric_limits<std::size_t>::max();
    {
      std::vector<std::size_t> shard_min(
          vertex_shards.size(), std::numeric_limits<std::size_t>::max());
      RunShards(vertex_pool, vertex_shards, [&](const ShardRange& shard) {
        std::size_t local = std::numeric_limits<std::size_t>::max();
        for (std::size_t v = shard.begin; v < shard.end; ++v) {
          if (!removed[v]) local = std::min(local, degree[v]);
        }
        shard_min[shard.index] = local;
      });
      for (const std::size_t m : shard_min) {
        wave_degree = std::min(wave_degree, m);
      }
    }
    DCS_CHECK(wave_degree != std::numeric_limits<std::size_t>::max());

    // Round 0 of the wave: every alive vertex at or below the wave level,
    // ascending (contiguous shards concatenated in shard order).
    frontier.clear();
    {
      std::vector<std::vector<Graph::VertexId>> shard_hits(
          vertex_shards.size());
      RunShards(vertex_pool, vertex_shards, [&](const ShardRange& shard) {
        for (std::size_t v = shard.begin; v < shard.end; ++v) {
          if (!removed[v] && degree[v] <= wave_degree) {
            shard_hits[shard.index].push_back(
                static_cast<Graph::VertexId>(v));
          }
        }
      });
      for (const std::vector<Graph::VertexId>& hits : shard_hits) {
        frontier.insert(frontier.end(), hits.begin(), hits.end());
      }
    }

    bool removed_this_wave = false;
    while (!frontier.empty()) {
      if (alive - frontier.size() < beta) {
        // Removing this whole round would overshoot; the strict tail
        // finishes the job one vertex at a time.
        tail = true;
        break;
      }
      ++round;
      for (Graph::VertexId v : frontier) {
        removed[v] = 1;
        stamp[v] = round;
        result.removal_order.push_back(v);
      }
      alive -= frontier.size();
      removed_this_wave = true;

      // Alive vertices adjacent to the removed round, deduplicated and
      // ascending (sort after a shard-order concatenation).
      candidates.clear();
      {
        ThreadPool* const scan_pool =
            frontier.size() >= kMinParallelScan ? pool : nullptr;
        const std::vector<ShardRange> shards =
            ShardsFor(scan_pool, frontier.size());
        std::vector<std::vector<Graph::VertexId>> shard_hits(shards.size());
        RunShards(scan_pool, shards, [&](const ShardRange& shard) {
          for (std::size_t i = shard.begin; i < shard.end; ++i) {
            for (Graph::VertexId w : graph.neighbors(frontier[i])) {
              if (!removed[w]) shard_hits[shard.index].push_back(w);
            }
          }
        });
        for (const std::vector<Graph::VertexId>& hits : shard_hits) {
          candidates.insert(candidates.end(), hits.begin(), hits.end());
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
      }

      // Each candidate loses exactly its edges into the round. One writer
      // per candidate, so the sharded update has no races and the new
      // degrees are a pure function of (graph, round set).
      {
        ThreadPool* const scan_pool =
            candidates.size() >= kMinParallelScan ? pool : nullptr;
        const std::vector<ShardRange> shards =
            ShardsFor(scan_pool, candidates.size());
        RunShards(scan_pool, shards, [&](const ShardRange& shard) {
          for (std::size_t i = shard.begin; i < shard.end; ++i) {
            const Graph::VertexId w = candidates[i];
            std::size_t lost = 0;
            for (Graph::VertexId u : graph.neighbors(w)) {
              if (stamp[u] == round) ++lost;
            }
            degree[w] -= lost;
          }
        });
      }

      // Next round: candidates dragged to or below the wave level. The
      // candidate list is ascending, so the next round is too.
      frontier.clear();
      for (Graph::VertexId w : candidates) {
        if (degree[w] <= wave_degree) frontier.push_back(w);
      }
    }
    if (removed_this_wave) ++result.waves;
  }

  if (alive > beta) {
    // Strict tail: lazy-deletion min-heap on (degree, id). The graph state
    // here is a pure function of (input graph, beta) — every full wave was
    // an order-invariant k-core complement — so the tail, though serial, is
    // reached with identical state at any thread count.
    using Entry = std::pair<std::size_t, Graph::VertexId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (std::size_t v = 0; v < n; ++v) {
      if (!removed[v]) {
        heap.emplace(degree[v], static_cast<Graph::VertexId>(v));
      }
    }
    while (alive > beta) {
      DCS_CHECK(!heap.empty());
      const auto [key, v] = heap.top();
      heap.pop();
      if (removed[v] || key != degree[v]) continue;  // Stale entry.
      removed[v] = 1;
      --alive;
      result.removal_order.push_back(v);
      ++result.tail_removals;
      for (Graph::VertexId w : graph.neighbors(v)) {
        if (removed[w]) continue;
        --degree[w];
        heap.emplace(degree[w], w);
      }
    }
  }

  result.core.reserve(alive);
  for (std::size_t v = 0; v < n; ++v) {
    if (!removed[v]) result.core.push_back(static_cast<Graph::VertexId>(v));
  }
  return result;
}

// Lazy-deletion heap peeling for the max-degree ablation baseline.
// Entries are (key, vertex); stale entries (key != current degree) are
// skipped on pop. Total pushes are O(V + E), so cost is O((V+E) log V).
PeelResult PeelMaxDegreeHeap(const Graph& graph, std::size_t beta) {
  constexpr bool min_side = false;
  const std::size_t n = graph.num_vertices();
  std::vector<std::int64_t> degree(n);
  std::vector<char> removed(n, 0);

  using Entry = std::pair<std::int64_t, Graph::VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::int64_t>(graph.degree(
        static_cast<Graph::VertexId>(v)));
    const std::int64_t key = min_side ? degree[v] : -degree[v];
    heap.emplace(key, static_cast<Graph::VertexId>(v));
  }

  PeelResult result;
  result.removal_order.reserve(n > beta ? n - beta : 0);
  std::size_t remaining = n;
  while (remaining > beta && !heap.empty()) {
    const auto [key, v] = heap.top();
    heap.pop();
    const std::int64_t current = min_side ? degree[v] : -degree[v];
    if (removed[v] || key != current) continue;  // Stale entry.
    removed[v] = 1;
    --remaining;
    result.removal_order.push_back(v);
    for (Graph::VertexId w : graph.neighbors(v)) {
      if (removed[w]) continue;
      --degree[w];
      heap.emplace(min_side ? degree[w] : -degree[w], w);
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!removed[v]) result.core.push_back(static_cast<Graph::VertexId>(v));
  }
  return result;
}

PeelResult PeelRandom(const Graph& graph, std::size_t beta, Rng* rng) {
  DCS_CHECK(rng != nullptr);
  const std::size_t n = graph.num_vertices();
  std::vector<Graph::VertexId> remaining(n);
  for (std::size_t v = 0; v < n; ++v) {
    remaining[v] = static_cast<Graph::VertexId>(v);
  }
  PeelResult result;
  while (remaining.size() > beta) {
    const std::size_t pick = rng->UniformInt(remaining.size());
    result.removal_order.push_back(remaining[pick]);
    remaining[pick] = remaining.back();
    remaining.pop_back();
  }
  std::sort(remaining.begin(), remaining.end());
  result.core = std::move(remaining);
  return result;
}

}  // namespace

PeelResult PeelToSize(const Graph& graph, std::size_t beta,
                      PeelStrategy strategy, Rng* rng, ThreadPool* pool) {
  DCS_CHECK(graph.finalized());
  switch (strategy) {
    case PeelStrategy::kMinDegree:
      return PeelMinDegreeWaves(graph, beta, pool);
    case PeelStrategy::kMaxDegree:
      return PeelMaxDegreeHeap(graph, beta);
    case PeelStrategy::kRandom:
      return PeelRandom(graph, beta, rng);
  }
  DCS_CHECK(false) << "unknown strategy";
  return {};
}

}  // namespace dcs
