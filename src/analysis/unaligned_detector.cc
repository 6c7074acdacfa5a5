#include "analysis/unaligned_detector.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/stats_math.h"
#include "graph/core_decomposition.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

UnalignedDetection DetectUnalignedPattern(const Graph& graph,
                                          const UnalignedDetectorOptions& options,
                                          const AnalysisContext& context) {
  DCS_CHECK(graph.finalized());
  ThreadPool* pool = context.pool;
  UnalignedDetection detection;

  // Step 2: find the core by min-degree peeling.
  PeelResult peel;
  {
    ScopedStageTimer peel_timer("find_core");
    peel = FindCore(graph, options.beta, pool);
  }
  detection.core = peel.core;

  // Step 3: survivors are outside vertices with >= d edges into the core.
  // The per-vertex test only reads the graph and the core flags, so shards
  // are independent; contiguous ascending shards concatenated in shard
  // order give the same ascending survivor list as the serial loop.
  std::vector<char> in_core(graph.num_vertices(), 0);
  for (Graph::VertexId v : detection.core) in_core[v] = 1;

  auto survives = [&](std::size_t v) {
    if (in_core[v]) return false;
    std::size_t edges_into_core = 0;
    for (Graph::VertexId w :
         graph.neighbors(static_cast<Graph::VertexId>(v))) {
      if (in_core[w]) ++edges_into_core;
    }
    return edges_into_core >= options.expand_min_edges;
  };
  std::vector<Graph::VertexId> survivors;
  const std::vector<ShardRange> shards = ShardsFor(pool, graph.num_vertices());
  std::vector<std::vector<Graph::VertexId>> shard_survivors(shards.size());
  RunShards(pool, shards, [&](const ShardRange& shard) {
    for (std::size_t v = shard.begin; v < shard.end; ++v) {
      if (survives(v)) {
        shard_survivors[shard.index].push_back(static_cast<Graph::VertexId>(v));
      }
    }
  });
  for (const std::vector<Graph::VertexId>& part : shard_survivors) {
    survivors.insert(survivors.end(), part.begin(), part.end());
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
    PeelResult second = FindCore(h, second_beta, pool);
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

namespace {

// Number of edges of `graph` with both endpoints in sorted `vertices`.
std::size_t InducedEdgeCount(const Graph& graph,
                             const std::vector<Graph::VertexId>& vertices) {
  std::size_t count = 0;
  for (Graph::VertexId v : vertices) {
    for (Graph::VertexId w : graph.neighbors(v)) {
      if (w > v &&
          std::binary_search(vertices.begin(), vertices.end(), w)) {
        ++count;
      }
    }
  }
  return count;
}

// Induced subgraph on the complement of `removed` (sorted), with
// `mapping[new_id] = old_id`.
Graph InducedComplement(const Graph& graph,
                        const std::vector<Graph::VertexId>& removed,
                        std::vector<Graph::VertexId>* mapping) {
  mapping->clear();
  std::vector<std::uint32_t> new_id(graph.num_vertices(), UINT32_MAX);
  for (Graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!std::binary_search(removed.begin(), removed.end(), v)) {
      new_id[v] = static_cast<std::uint32_t>(mapping->size());
      mapping->push_back(v);
    }
  }
  Graph sub(mapping->size());
  for (const auto& [u, v] : graph.edges()) {
    if (new_id[u] != UINT32_MAX && new_id[v] != UINT32_MAX) {
      sub.AddEdge(new_id[u], new_id[v]);
    }
  }
  sub.Finalize();
  return sub;
}

}  // namespace

std::vector<UnalignedDetection> DetectMultipleUnalignedPatterns(
    const Graph& graph, const MultiPatternOptions& options,
    const AnalysisContext& context) {
  DCS_CHECK(graph.finalized());
  std::vector<UnalignedDetection> detections;
  // Vertices removed so far (original ids), sorted.
  std::vector<Graph::VertexId> removed;
  const Graph* current = &graph;
  Graph working(0);
  std::vector<Graph::VertexId> mapping;  // current id -> original id.

  for (std::size_t round = 0; round < options.max_patterns; ++round) {
    UnalignedDetection detection =
        DetectUnalignedPattern(*current, options.detector, context);
    if (detection.detected.size() < 2) break;

    // Significance gate (Eq 2): even the densest size-m subset of a pure
    // null graph must beat this bound with probability <= alpha.
    const std::size_t edges = InducedEdgeCount(*current, detection.detected);
    const auto m = static_cast<std::int64_t>(detection.detected.size());
    const std::int64_t pairs = m * (m - 1) / 2;
    const double log_fp =
        LogChoose(static_cast<double>(current->num_vertices()),
                  static_cast<double>(m)) +
        LogBinomSf(static_cast<std::int64_t>(edges) - 1, pairs,
                   options.p_background);
    if (log_fp > std::log(options.significance_alpha)) break;

    // Map back to original ids (round 0 is already in original ids).
    if (round > 0) {
      auto remap = [&](std::vector<Graph::VertexId>* ids) {
        for (Graph::VertexId& v : *ids) v = mapping[v];
        std::sort(ids->begin(), ids->end());
      };
      remap(&detection.core);
      remap(&detection.second_core);
      remap(&detection.detected);
    }
    removed.insert(removed.end(), detection.detected.begin(),
                   detection.detected.end());
    std::sort(removed.begin(), removed.end());
    detections.push_back(std::move(detection));

    working = InducedComplement(graph, removed, &mapping);
    current = &working;
  }
  return detections;
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
