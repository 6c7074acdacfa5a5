#ifndef DCS_ANALYSIS_UNALIGNED_DETECTOR_H_
#define DCS_ANALYSIS_UNALIGNED_DETECTOR_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace dcs {

/// Tuning of the unaligned-case pattern finding (Section IV-B, Fig 10).
struct UnalignedDetectorOptions {
  /// Core size beta: peeling stops when this many vertices remain. The paper
  /// configures it by Monte-Carlo so that, above the detectable threshold,
  /// the core is mostly pattern vertices.
  std::size_t beta = 30;
  /// Step 3 survival rule: a vertex outside the core must have at least d
  /// edges into the core to stay.
  std::size_t expand_min_edges = 3;
  /// Core size for the second FindCore pass over the surviving graph H
  /// (0 = reuse beta).
  std::size_t second_beta = 0;
};

/// Output of the three-step detection procedure.
struct UnalignedDetection {
  /// Step 2's core, V_core.
  std::vector<Graph::VertexId> core;
  /// Step 3's second core, V_2nd_core.
  std::vector<Graph::VertexId> second_core;
  /// Union of the two cores — the groups reported as having seen the common
  /// content.
  std::vector<Graph::VertexId> detected;
};

/// \brief Steps 2 and 3 of the unaligned detection algorithm.
///
/// Step 2 peels minimum-degree vertices until beta remain (FindCore, proven
/// stochastically optimal in the paper's appendix). Step 3 keeps only
/// outside vertices with >= d edges into the core, re-runs FindCore on the
/// graph they induce, and reports the union of the two cores. Requires a
/// finalized graph. Runs serially: on the graphs the analysis center builds
/// (one vertex per group) it takes well under a millisecond, so a pool has
/// nothing to win here (docs/PARALLELISM.md).
UnalignedDetection DetectUnalignedPattern(
    const Graph& graph, const UnalignedDetectorOptions& options);

/// Scores a detection against ground truth: fraction of reported vertices
/// that are not in `truth` (false positive rate of the report) and fraction
/// of `truth` missed (false negative rate). Both vectors must be sorted.
struct DetectionScore {
  double false_positive = 0.0;
  double false_negative = 0.0;
  std::size_t true_positives = 0;
};
DetectionScore ScoreDetection(const std::vector<Graph::VertexId>& detected,
                              const std::vector<Graph::VertexId>& truth);

}  // namespace dcs

#endif  // DCS_ANALYSIS_UNALIGNED_DETECTOR_H_
