// The serial replay: the same frames, one thread, one span per public call
// of each layer (perfbench/README.md, "Traced replay"). It supplies the
// reference reports of the correctness gate and, with probes on, the
// per-layer numbers.
#ifndef DCS_PERFBENCH_REPLAY_H_
#define DCS_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dcs/epoch_ring.h"
#include "workloads.h"

namespace perfbench {

/// One timed call. Spans of one epoch share `epoch`; `parent` is the id of
/// the span that caused it (-1 for the epoch's root span).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t id = 0;
  std::int32_t parent = -1;
  std::uint64_t epoch = 0;
};

/// Per-epoch figures read off the spans (milliseconds) and the counts
/// recorded at the same boundaries. Probe fields stay 0 when probes are off
/// or the layer is idle on the workload.
struct EpochSample {
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t digests = 0;
  double parse_ms = 0.0;
  double decode_ms = 0.0;
  double add_digest_ms = 0.0;
  double analyze_ms = 0.0;
  double clear_ms = 0.0;
  /// Sum of the analyze span's direct probe children.
  double probe_sum_ms = 0.0;

  double aligned_screen_ms = 0.0;
  double aligned_search_ms = 0.0;
  double aligned_detect_ms = 0.0;  ///< DetectInMatrix (screen+search+scan).
  std::uint64_t aligned_iterations = 0;
  std::uint64_t aligned_screen_cols = 0;

  double unaligned_lambda_ms = 0.0;
  double unaligned_graph_ms = 0.0;
  double unaligned_er_ms = 0.0;
  double unaligned_peel_ms = 0.0;
  std::uint64_t unaligned_row_pairs = 0;
  std::uint64_t unaligned_edges = 0;

  /// parse + decode + add_digest + analyze + clear: the serial cost of the
  /// epoch through the public calls.
  double serial_ms() const {
    return parse_ms + decode_ms + add_digest_ms + analyze_ms + clear_ms;
  }
};

struct ReplayOptions {
  /// Run the sub-layer probes under each analyze span.
  bool probes = false;
  /// Replays epochs 0, 1, ... until both hold.
  std::uint64_t min_epochs = 1;
  double seconds = 0.0;
};

struct ReplayResult {
  /// Report of epoch e at index e.
  std::vector<dcs::DcsReport> reports;
  std::vector<EpochSample> samples;
  std::vector<Span> spans;
};

ReplayResult Replay(Inputs* inputs, const ReplayOptions& options);

/// The serial replay's report of every variant (epoch v carries variant v),
/// the variants spread over `threads` threads, each with its own monitor.
/// The reference of the correctness gate when no spans are wanted.
std::vector<dcs::DcsReport> ReferenceReports(Inputs* inputs,
                                             std::size_t threads);

/// The report a ring slot closes epoch `epoch` with after accepting
/// `digests` in the given order (serial analysis, no spans). The digests'
/// epoch ids must equal `epoch`.
dcs::DcsReport AnalyzeInOrder(const dcs::EpochRingOptions& ring,
                              const std::vector<dcs::Digest>& digests,
                              std::uint64_t epoch);

/// Writes the spans as Chrome trace-event JSON (chrome://tracing,
/// ui.perfetto.dev). False on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // DCS_PERFBENCH_REPLAY_H_
