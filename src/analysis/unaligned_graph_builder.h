#ifndef DCS_ANALYSIS_UNALIGNED_GRAPH_BUILDER_H_
#define DCS_ANALYSIS_UNALIGNED_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "common/thread_pool.h"
#include "analysis/lambda_table.h"
#include "graph/graph.h"

namespace dcs {

/// How the pair scan runs — the dominant cost of the unaligned analysis
/// (Section IV-D: "the vast majority of the computational complexity ...
/// comes from computing, for any two rows, the number of indices in which
/// both rows have value 1"). The scan always covers every group pair.
struct PairScanOptions {
  /// Shard the λ calibration and the pair scan over this pool when set
  /// (Section IV-D, possibility 3); serial when null.
  ThreadPool* pool = nullptr;
};

/// Parameters for converting the stacked sketch matrix into a correlation
/// graph (Section IV-B).
struct GraphBuilderOptions {
  /// Rows per group (the paper's 10 offset arrays).
  std::size_t arrays_per_group = 10;
  /// Scan parallelism — Section IV-D.
  PairScanOptions scan;
};

/// \brief Induces the group graph: vertices are groups, and an edge joins
/// two groups iff some pair of their rows shares more common 1s than
/// lambda_{i,j}.
///
/// `matrix` is group-major: rows [g * arrays_per_group, (g+1) *
/// arrays_per_group) belong to group g, exactly how FlowSplitSketch and the
/// analysis center's vertical merge lay them out. Row weights are
/// precomputed once; the hypergeometric thresholds come from `lambda`,
/// which is calibrated up front over the observed weights (a table kept
/// from an earlier matrix computes only the weights it has not seen).
///
/// With a pool in `options.scan`, the lambda calibration and the pair scan
/// run sharded (the row-weight pass is serial); each scan shard buffers its
/// own edges and the buffers merge in ascending shard order, so the edge
/// list (and therefore the graph) is bit-identical at any thread count,
/// including no pool at all (docs/PARALLELISM.md).
Graph BuildCorrelationGraph(const BitMatrix& matrix,
                            const LambdaTable& lambda,
                            const GraphBuilderOptions& options);

/// The graphs of two lambda tables over one matrix, from one pair scan:
/// `.first` under `first`, `.second` under `second`, each bit-identical to
/// BuildCorrelationGraph() with that table alone. The table with the larger
/// p_star is pointwise <= the other, so each row pair is compared against
/// it first and the other table is read only when the count clears it; a
/// group pair stops once both of its edges are found. This is the
/// unaligned pipeline's ER graph and core graph G' (Section IV-B).
std::pair<Graph, Graph> BuildCorrelationGraphs(
    const BitMatrix& matrix, const LambdaTable& first,
    const LambdaTable& second, const GraphBuilderOptions& options);

}  // namespace dcs

#endif  // DCS_ANALYSIS_UNALIGNED_GRAPH_BUILDER_H_
