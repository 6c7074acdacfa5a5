#ifndef DCS_DCS_OPTIONS_H_
#define DCS_DCS_OPTIONS_H_

#include <cstddef>

#include "analysis/aligned_detector.h"
#include "analysis/cluster_separation.h"
#include "analysis/unaligned_detector.h"
#include "analysis/unaligned_graph_builder.h"
#include "sketch/bitmap_sketch.h"
#include "sketch/flow_split_sketch.h"

namespace dcs {

/// End-to-end configuration of the aligned DCS pipeline (Section III).
struct AlignedPipelineOptions {
  /// Per-router streaming module.
  BitmapSketchOptions sketch;
  /// Screen width n' at the analysis center (Theorem 2; 4,000 for the
  /// paper's 4 Mbit bitmaps).
  std::size_t n_prime = 4000;
  /// Greedy ASID search tuning.
  AlignedDetectorOptions detector;
  /// Maintain per-column weight counts incrementally as digests arrive, so
  /// the weight screen starts hot instead of rescanning the whole matrix at
  /// analysis time (docs/STREAMING.md). Bit-identical to the cold path;
  /// costs one add_row_to_byte_lanes pass per accepted digest row.
  bool incremental_weights = false;
};

/// End-to-end configuration of the unaligned DCS pipeline (Section IV).
struct UnalignedPipelineOptions {
  /// Per-router streaming module (flow splitting + offset sampling).
  FlowSplitOptions sketch;
  /// Null edge probability of the ER-test graph, as a multiple of the phase
  /// transition 1/n (n = total groups). The paper uses p1 = 0.65e-5 at
  /// n = 102,400, i.e. 0.665/n.
  double er_p1_times_n = 0.665;
  /// Null edge probability of the core-finding graph, as a multiple of 1/n.
  /// The paper uses 0.8e-4 at n = 102,400, i.e. 8.2/n — far above the phase
  /// transition, as Section IV-B prescribes for the denser graph G'.
  double core_p1_times_n = 8.2;
  /// Largest-component threshold for the ER test; 0 = automatic (~8.7 ln n,
  /// which reproduces the paper's 100 at n = 102,400).
  std::size_t er_threshold = 0;
  /// Core finding / expansion tuning.
  UnalignedDetectorOptions detector;
  /// Per-content cluster separation of the detected set (Section II-D).
  ClusterSeparationOptions separation;
  /// Correlation scan tuning (rows per group, scan parallelism).
  GraphBuilderOptions builder;
};

/// Returns defaults scaled for a small deployment (used by the examples and
/// tests): r routers, g groups per router, keeping every ratio of the
/// paper's configuration.
UnalignedPipelineOptions SmallUnalignedDefaults(std::size_t num_groups);

}  // namespace dcs

#endif  // DCS_DCS_OPTIONS_H_
