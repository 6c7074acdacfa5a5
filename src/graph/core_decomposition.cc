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

// Canonical wave peeling for kMinDegree (see docs/PARALLELISM.md).
//
// At the current minimum degree d, the set of vertices a min-degree peel
// removes before the residual minimum first exceeds d is the complement of
// the (d+1)-core — a graph invariant, identical under every tie-break. The
// wave removes that set in cascade rounds (round 0: every alive vertex at
// degree <= d; round k+1: neighbors dragged to <= d by round k), each round
// in ascending vertex id. Only the final wave, which would drop the graph
// below beta, is peeled one vertex at a time under a strict (degree, id)
// order. Every removal before that tail is a whole k-core complement, so
// the result does not depend on how ties among equal degrees fall.
PeelResult PeelMinDegreeWaves(const Graph& graph, std::size_t beta) {
  const std::size_t n = graph.num_vertices();
  PeelResult result;
  if (n == 0) return result;

  std::vector<std::size_t> degree(n);
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = graph.degree(static_cast<Graph::VertexId>(v));
  }

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
    // Minimum residual degree among alive vertices.
    std::size_t wave_degree = std::numeric_limits<std::size_t>::max();
    for (std::size_t v = 0; v < n; ++v) {
      if (!removed[v]) wave_degree = std::min(wave_degree, degree[v]);
    }
    DCS_CHECK(wave_degree != std::numeric_limits<std::size_t>::max());

    // Round 0 of the wave: every alive vertex at or below the wave level,
    // ascending.
    frontier.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (!removed[v] && degree[v] <= wave_degree) {
        frontier.push_back(static_cast<Graph::VertexId>(v));
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
      // ascending.
      candidates.clear();
      for (Graph::VertexId v : frontier) {
        for (Graph::VertexId w : graph.neighbors(v)) {
          if (!removed[w]) candidates.push_back(w);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      // Each candidate loses exactly its edges into the round, so the new
      // degrees are a pure function of (graph, round set).
      for (Graph::VertexId w : candidates) {
        std::size_t lost = 0;
        for (Graph::VertexId u : graph.neighbors(w)) {
          if (stamp[u] == round) ++lost;
        }
        degree[w] -= lost;
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
    // an order-invariant k-core complement.
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
                      PeelStrategy strategy, Rng* rng) {
  DCS_CHECK(graph.finalized());
  switch (strategy) {
    case PeelStrategy::kMinDegree:
      return PeelMinDegreeWaves(graph, beta);
    case PeelStrategy::kMaxDegree:
      return PeelMaxDegreeHeap(graph, beta);
    case PeelStrategy::kRandom:
      return PeelRandom(graph, beta, rng);
  }
  DCS_CHECK(false) << "unknown strategy";
  return {};
}

}  // namespace dcs
