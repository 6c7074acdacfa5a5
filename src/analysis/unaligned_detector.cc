#include "analysis/unaligned_detector.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "graph/core_decomposition.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

UnalignedDetection DetectUnalignedPattern(
    const Graph& graph, const UnalignedDetectorOptions& options) {
  DCS_CHECK(graph.finalized());
  UnalignedDetection detection;

  // Step 2: find the core by min-degree peeling.
  PeelResult peel;
  {
    ScopedStageTimer peel_timer("find_core");
    peel = FindCore(graph, options.beta);
  }
  detection.core = peel.core;

  // Step 3: survivors are outside vertices with >= d edges into the core,
  // ascending.
  std::vector<char> in_core(graph.num_vertices(), 0);
  for (Graph::VertexId v : detection.core) in_core[v] = 1;

  std::vector<Graph::VertexId> survivors;
  for (Graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (in_core[v]) continue;
    std::size_t edges_into_core = 0;
    for (Graph::VertexId w : graph.neighbors(v)) {
      if (in_core[w]) ++edges_into_core;
    }
    if (edges_into_core >= options.expand_min_edges) survivors.push_back(v);
  }

  // Induce H on the survivors and find a second core in it.
  if (!survivors.empty()) {
    std::unordered_map<Graph::VertexId, Graph::VertexId> remap;
    remap.reserve(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      remap.emplace(survivors[i], static_cast<Graph::VertexId>(i));
    }
    Graph h(survivors.size());
    for (Graph::VertexId v : survivors) {
      for (Graph::VertexId w : graph.neighbors(v)) {
        if (w <= v) continue;  // Each undirected edge once.
        const auto it = remap.find(w);
        if (it != remap.end()) h.AddEdge(remap[v], it->second);
      }
    }
    h.Finalize();
    const std::size_t second_beta =
        options.second_beta > 0 ? options.second_beta : options.beta;
    PeelResult second = FindCore(h, second_beta);
    detection.second_core.reserve(second.core.size());
    for (Graph::VertexId v : second.core) {
      detection.second_core.push_back(survivors[v]);
    }
    std::sort(detection.second_core.begin(), detection.second_core.end());
  }

  detection.detected = detection.core;
  detection.detected.insert(detection.detected.end(),
                            detection.second_core.begin(),
                            detection.second_core.end());
  std::sort(detection.detected.begin(), detection.detected.end());
  detection.detected.erase(
      std::unique(detection.detected.begin(), detection.detected.end()),
      detection.detected.end());
  if (ObsEnabled()) {
    ObsCounter("detector.unaligned.runs").Increment();
    ObsCounter("detector.unaligned.vertices_peeled")
        .Add(peel.removal_order.size());
    ObsCounter("unaligned.peel_waves").Add(peel.waves);
    ObsCounter("unaligned.peel_tail_removals").Add(peel.tail_removals);
    ObsCounter("detector.unaligned.survivors").Add(survivors.size());
    ObsCounter("detector.unaligned.second_core_vertices")
        .Add(detection.second_core.size());
    ObsCounter("detector.unaligned.detected_vertices")
        .Add(detection.detected.size());
    ObsGauge("detector.unaligned.core_size")
        .Set(static_cast<double>(detection.core.size()));
  }
  return detection;
}

DetectionScore ScoreDetection(const std::vector<Graph::VertexId>& detected,
                              const std::vector<Graph::VertexId>& truth) {
  DCS_CHECK(std::is_sorted(detected.begin(), detected.end()));
  DCS_CHECK(std::is_sorted(truth.begin(), truth.end()));
  DetectionScore score;
  std::vector<Graph::VertexId> hits;
  std::set_intersection(detected.begin(), detected.end(), truth.begin(),
                        truth.end(), std::back_inserter(hits));
  score.true_positives = hits.size();
  score.false_positive =
      detected.empty()
          ? 0.0
          : static_cast<double>(detected.size() - hits.size()) /
                static_cast<double>(detected.size());
  score.false_negative =
      truth.empty() ? 0.0
                    : static_cast<double>(truth.size() - hits.size()) /
                          static_cast<double>(truth.size());
  return score;
}

}  // namespace dcs
