#ifndef DCS_TESTS_PEEL_FIXTURES_H_
#define DCS_TESTS_PEEL_FIXTURES_H_

// Tie-heavy graphs for the min-degree peel, shared by
// test_core_decomposition (pinned removal orders) and test_peeling_parallel
// (concurrent peels on pool workers).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace dcs {
namespace peel_fixtures {

// All vertices degree 2 — every peel decision is a tie.
inline Graph Cycle(std::size_t n) {
  Graph g(n);
  for (std::size_t v = 0; v < n; ++v) {
    g.AddEdge(static_cast<Graph::VertexId>(v),
              static_cast<Graph::VertexId>((v + 1) % n));
  }
  g.Finalize();
  return g;
}

// Two-dimensional grid: interior degree 4, edges 3, corners 2 — tie-heavy
// cascades whose waves sweep inward.
inline Graph Grid(std::size_t rows, std::size_t cols) {
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<Graph::VertexId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  g.Finalize();
  return g;
}

// Every vertex has degree `left` or `right` — one giant bucket per side.
inline Graph CompleteBipartite(std::size_t left, std::size_t right) {
  Graph g(left + right);
  for (std::size_t a = 0; a < left; ++a) {
    for (std::size_t b = 0; b < right; ++b) {
      g.AddEdge(static_cast<Graph::VertexId>(a),
                static_cast<Graph::VertexId>(left + b));
    }
  }
  g.Finalize();
  return g;
}

// Sparse ER noise, optionally with a planted clique on the first
// `clique` vertices.
inline Graph ErGraph(std::size_t n, double p, std::uint64_t seed,
                     std::size_t clique) {
  Rng rng(seed);
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) {
        g.AddEdge(static_cast<Graph::VertexId>(u),
                  static_cast<Graph::VertexId>(v));
      }
    }
  }
  for (std::size_t u = 0; u < clique; ++u) {
    for (std::size_t v = u + 1; v < clique; ++v) {
      g.AddEdge(static_cast<Graph::VertexId>(u),
                static_cast<Graph::VertexId>(v));
    }
  }
  g.Finalize();
  return g;
}

// FNV-1a over the little-endian bytes of each vertex id.
inline std::uint64_t OrderFingerprint(
    const std::vector<Graph::VertexId>& order) {
  std::uint64_t h = 1469598103934665603ULL;
  for (Graph::VertexId v : order) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace peel_fixtures
}  // namespace dcs

#endif  // DCS_TESTS_PEEL_FIXTURES_H_
