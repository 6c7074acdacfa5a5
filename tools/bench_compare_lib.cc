#include "bench_compare_lib.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/exporter.h"

namespace dcs {
namespace bench_compare {
namespace {

bool EndsWith(const std::string& name, const char* suffix) {
  const std::size_t n = std::string::traits_type::length(suffix);
  return name.size() >= n &&
         name.compare(name.size() - n, n, suffix) == 0;
}

// The thresholds are one-sided: only the "worse" direction gates. Faster,
// smaller, or more accurate than the baseline is never a regression.
bool IsRegression(MetricClass cls, double baseline, double current,
                  const BenchCompareOptions& options) {
  switch (cls) {
    case MetricClass::kTiming:
      return current > baseline * options.timing_factor;
    case MetricClass::kMemory:
      return current >
             baseline * (1.0 + options.memory_tolerance) +
                 options.memory_floor_mb;
    case MetricClass::kQuality:
      return current < baseline * (1.0 - options.quality_tolerance);
    case MetricClass::kInfo:
      return false;
  }
  return false;
}

}  // namespace

const char* MetricClassName(MetricClass cls) {
  switch (cls) {
    case MetricClass::kTiming:
      return "timing";
    case MetricClass::kMemory:
      return "memory";
    case MetricClass::kQuality:
      return "quality";
    case MetricClass::kInfo:
      return "info";
  }
  return "info";
}

MetricClass ClassifyMetric(const std::string& name) {
  // epochs_per_sec is throughput: timing-class, but higher is better, so
  // it is judged on its reciprocal (see CompareSnapshots).
  if (EndsWith(name, "_s") || EndsWith(name, "_ms") ||
      EndsWith(name, "_us") || EndsWith(name, "_ns") ||
      EndsWith(name, "_per_sec")) {
    return MetricClass::kTiming;
  }
  if (EndsWith(name, "_mb")) return MetricClass::kMemory;
  if (EndsWith(name, "_ratio")) return MetricClass::kQuality;
  return MetricClass::kInfo;
}

BenchCompareResult CompareSnapshots(const MetricsSnapshot& baseline,
                                    const MetricsSnapshot& current,
                                    const BenchCompareOptions& options) {
  const auto bench_gauges = [](const MetricsSnapshot& snapshot) {
    std::map<std::string, double> gauges;
    for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
      if (entry.type != MetricType::kGauge) continue;
      if (entry.name.rfind("bench.", 0) != 0) continue;
      gauges[entry.name] = entry.gauge_value;
    }
    return gauges;
  };
  const std::map<std::string, double> base = bench_gauges(baseline);
  const std::map<std::string, double> cur = bench_gauges(current);

  BenchCompareResult result;
  for (const auto& [name, value] : base) {
    if (!cur.contains(name)) result.baseline_only.push_back(name);
  }
  for (const auto& [name, value] : cur) {
    const auto it = base.find(name);
    if (it == base.end()) {
      result.current_only.push_back(name);
      continue;
    }
    MetricDelta delta;
    delta.name = name;
    delta.cls = ClassifyMetric(name);
    delta.baseline = it->second;
    delta.current = value;
    delta.ratio = it->second != 0.0 ? value / it->second : 1.0;
    // Throughput reads "higher is better"; judge the implied per-item time
    // instead so the timing factor applies in one direction everywhere.
    double judged_base = it->second;
    double judged_cur = value;
    if (EndsWith(name, "_per_sec") && judged_base > 0.0 &&
        judged_cur > 0.0) {
      judged_base = 1.0 / judged_base;
      judged_cur = 1.0 / judged_cur;
    }
    delta.regression =
        IsRegression(delta.cls, judged_base, judged_cur, options);
    if (delta.regression) ++result.num_regressions;
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

std::string FormatResult(const BenchCompareResult& result) {
  std::ostringstream os;
  std::size_t width = 4;
  for (const MetricDelta& delta : result.deltas) {
    width = std::max(width, delta.name.size());
  }
  os << "  " << std::string(width - 4, ' ')
     << "name   class     baseline     current   ratio\n";
  char buf[128];
  for (const MetricDelta& delta : result.deltas) {
    std::snprintf(buf, sizeof(buf), "  %*s %7s %11.4g %11.4g %7.3f%s\n",
                  static_cast<int>(width), delta.name.c_str(),
                  MetricClassName(delta.cls), delta.baseline, delta.current,
                  delta.ratio, delta.regression ? "  REGRESSION" : "");
    os << buf;
  }
  if (!result.baseline_only.empty() || !result.current_only.empty()) {
    os << "  (" << result.baseline_only.size() << " baseline-only, "
       << result.current_only.size()
       << " current-only metrics not compared)\n";
  }
  if (result.deltas.empty()) {
    os << "no overlapping bench.* gauges — nothing compared\n";
  } else if (result.num_regressions == 0) {
    os << "OK: " << result.deltas.size()
       << " metrics within thresholds\n";
  } else {
    os << "FAIL: " << result.num_regressions << " of "
       << result.deltas.size() << " metrics regressed\n";
  }
  return os.str();
}

bool LoadSnapshotFile(const std::string& path, MetricsSnapshot* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const Status status = ParseJsonLines(text.str(), out);
  if (!status.ok()) {
    *error = path + ": " + status.ToString();
    return false;
  }
  return true;
}

}  // namespace bench_compare
}  // namespace dcs
