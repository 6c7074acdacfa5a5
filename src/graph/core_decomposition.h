#ifndef DCS_GRAPH_CORE_DECOMPOSITION_H_
#define DCS_GRAPH_CORE_DECOMPOSITION_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace dcs {

/// Vertex-removal policies for the peeling game of the paper's Appendix.
/// kMinDegree is the paper's FindCore (Fig 10) and is stochastically optimal
/// under its computation model; the others are ablation baselines.
enum class PeelStrategy {
  kMinDegree,  ///< Always delete a vertex of smallest residual degree.
  kMaxDegree,  ///< Adversarial baseline: delete a largest-degree vertex.
  kRandom,     ///< Neutral baseline: delete a uniformly random vertex.
};

/// Result of peeling a graph down to `beta` vertices.
struct PeelResult {
  /// The surviving vertices (the paper's V_core), ascending.
  std::vector<Graph::VertexId> core;
  /// Deleted vertices in deletion order (length n - beta). For kMinDegree
  /// this is the canonical wave order documented in docs/PARALLELISM.md:
  /// whole waves (the complement of the next k-core) in cascade sub-rounds
  /// of ascending vertex id, then a strict (degree, id) tail for the final
  /// partial wave. The order is a pure function of the graph and beta.
  std::vector<Graph::VertexId> removal_order;
  /// Number of full cascade waves kMinDegree executed (k-core waypoints
  /// passed through); 0 for the other strategies.
  std::size_t waves = 0;
  /// Vertices removed one-at-a-time by kMinDegree's strict-tail phase (the
  /// final wave that would have overshot beta); 0 for other strategies.
  std::size_t tail_removals = 0;
};

/// \brief The paper's FindCore (Fig 10) generalized over PeelStrategy.
///
/// Repeatedly deletes one vertex (and its incident edges) according to the
/// strategy until `beta` vertices remain. Requires a finalized graph.
///
/// kMinDegree peels in cascade waves: at the current minimum degree d it
/// removes the full complement of the (d+1)-core (a graph invariant — the
/// same set under ANY min-degree tie-break), and only the last, partial
/// wave is peeled one vertex at a time under a strict (degree, id) order.
/// The waves make the result independent of tie-breaking among equal
/// degrees (docs/PARALLELISM.md §5). Cost is O(V + E) per wave plus an
/// O(V) minimum scan per wave.
///
/// `rng` is only used by kRandom and may be null for the other strategies.
PeelResult PeelToSize(const Graph& graph, std::size_t beta,
                      PeelStrategy strategy, Rng* rng);

/// Convenience wrapper with the paper's semantics.
inline PeelResult FindCore(const Graph& graph, std::size_t beta) {
  return PeelToSize(graph, beta, PeelStrategy::kMinDegree, nullptr);
}

}  // namespace dcs

#endif  // DCS_GRAPH_CORE_DECOMPOSITION_H_
