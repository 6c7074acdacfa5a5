#ifndef DCS_TOOLS_BENCH_COMPARE_LIB_H_
#define DCS_TOOLS_BENCH_COMPARE_LIB_H_

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dcs {
namespace bench_compare {

/// How a metric is judged. Classification is by name suffix (the bench
/// naming convention bench.<bench>.<scenario>.<quantity> makes the
/// quantity the suffix), because the snapshot format carries no unit or
/// direction metadata.
enum class MetricClass {
  /// Wall-clock quantities (suffix _s, _ms, _us, _ns, _per_sec): real but
  /// machine-dependent, so regressions are gated on a lenient
  /// multiplicative factor — a CI runner is not the machine that produced
  /// the committed snapshot.
  kTiming,
  /// Memory quantities (suffix _mb): stable across machines for the same
  /// workload; moderate relative tolerance plus an absolute floor for
  /// allocator noise.
  kMemory,
  /// Quality quantities (suffix _ratio): nearly deterministic, tight
  /// relative tolerance; only a decrease can regress.
  kQuality,
  /// Everything else (counts, speedups): reported, never gated. Speedup is
  /// informational because a single-core CI container measures scheduling
  /// overhead, not scaling.
  kInfo,
};

const char* MetricClassName(MetricClass cls);

/// Classifies a metric name by its suffix.
MetricClass ClassifyMetric(const std::string& name);

struct BenchCompareOptions {
  /// kTiming: regression when current > baseline * timing_factor.
  double timing_factor = 4.0;
  /// kMemory: regression when current > baseline * (1 + memory_tolerance)
  /// + memory_floor_mb.
  double memory_tolerance = 0.5;
  double memory_floor_mb = 16.0;
  /// kQuality: regression when current < baseline * (1 - quality_tolerance).
  double quality_tolerance = 0.10;
};

/// One compared metric (present in both snapshots, bench.-prefixed gauge).
struct MetricDelta {
  std::string name;
  MetricClass cls = MetricClass::kInfo;
  double baseline = 0.0;
  double current = 0.0;
  /// current / baseline; 1.0 when the baseline is zero.
  double ratio = 1.0;
  bool regression = false;
};

struct BenchCompareResult {
  std::vector<MetricDelta> deltas;  // Sorted by name.
  std::size_t num_regressions = 0;
  /// bench.-prefixed gauges present in exactly one snapshot (scenario
  /// mismatch — e.g. a full run compared against a smoke run covers extra
  /// scenarios). Never a failure by itself, but an empty intersection is.
  std::vector<std::string> baseline_only;
  std::vector<std::string> current_only;
};

/// Compares every bench.-prefixed gauge present in both snapshots.
/// Non-bench metrics (pipeline counters the run happened to touch) and
/// non-gauges are ignored: only the quantities a bench deliberately
/// exported describe its result.
BenchCompareResult CompareSnapshots(const MetricsSnapshot& baseline,
                                    const MetricsSnapshot& current,
                                    const BenchCompareOptions& options);

/// Renders the result as an aligned table plus a verdict line.
std::string FormatResult(const BenchCompareResult& result);

/// Loads a JSON-lines snapshot from a file. Returns false (with a message
/// in *error) when the file is unreadable or malformed.
bool LoadSnapshotFile(const std::string& path, MetricsSnapshot* out,
                      std::string* error);

}  // namespace bench_compare
}  // namespace dcs

#endif  // DCS_TOOLS_BENCH_COMPARE_LIB_H_
