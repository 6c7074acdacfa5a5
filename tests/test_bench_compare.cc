// Unit tests for the bench-snapshot differ (tools/bench_compare_lib):
// suffix classification, one-sided noise-aware thresholds per class,
// bench.-gauge filtering, overlap bookkeeping, and the JSON-lines file
// round trip the CLI depends on.

#include "bench_compare_lib.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/exporter.h"
#include "obs/metrics.h"

namespace dcs {
namespace bench_compare {
namespace {

MetricsSnapshot::Entry Gauge(const std::string& name, double value) {
  MetricsSnapshot::Entry entry;
  entry.name = name;
  entry.type = MetricType::kGauge;
  entry.gauge_value = value;
  return entry;
}

MetricsSnapshot Snapshot(std::vector<MetricsSnapshot::Entry> entries) {
  MetricsSnapshot snapshot;
  snapshot.entries = std::move(entries);
  return snapshot;
}

const MetricDelta* FindDelta(const BenchCompareResult& result,
                             const std::string& name) {
  for (const MetricDelta& delta : result.deltas) {
    if (delta.name == name) return &delta;
  }
  return nullptr;
}

TEST(ClassifyMetricTest, SuffixConvention) {
  EXPECT_EQ(ClassifyMetric("bench.soak.total_s"), MetricClass::kTiming);
  EXPECT_EQ(ClassifyMetric("bench.soak.p99_epoch_ms"), MetricClass::kTiming);
  EXPECT_EQ(ClassifyMetric("bench.sketch_throughput.add_digest_per_digest_us"),
            MetricClass::kTiming);
  EXPECT_EQ(ClassifyMetric("bench.soak.epochs_per_sec"),
            MetricClass::kTiming);
  EXPECT_EQ(ClassifyMetric("bench.soak.peak_rss_mb"), MetricClass::kMemory);
  EXPECT_EQ(ClassifyMetric("bench.soak.detection_ratio"),
            MetricClass::kQuality);
  EXPECT_EQ(ClassifyMetric("bench.soak.epochs"), MetricClass::kInfo);
  EXPECT_EQ(ClassifyMetric("bench.parallel_unaligned.g128.t2.speedup"),
            MetricClass::kInfo);
}

TEST(CompareSnapshotsTest, TimingGatesOnLenientFactorOnly) {
  const MetricsSnapshot baseline =
      Snapshot({Gauge("bench.x.total_s", 1.0)});
  BenchCompareOptions options;
  options.timing_factor = 4.0;

  // 3.9x slower: inside the factor (CI machines differ), not a regression.
  BenchCompareResult result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.total_s", 3.9)}), options);
  EXPECT_EQ(result.num_regressions, 0u);

  // 4.1x slower: regression.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.total_s", 4.1)}), options);
  EXPECT_EQ(result.num_regressions, 1u);
  ASSERT_NE(FindDelta(result, "bench.x.total_s"), nullptr);
  EXPECT_TRUE(FindDelta(result, "bench.x.total_s")->regression);

  // 10x faster: never a regression (one-sided).
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.total_s", 0.1)}), options);
  EXPECT_EQ(result.num_regressions, 0u);
}

TEST(CompareSnapshotsTest, ThroughputJudgedOnReciprocal) {
  const MetricsSnapshot baseline =
      Snapshot({Gauge("bench.x.epochs_per_sec", 400.0)});
  BenchCompareOptions options;
  options.timing_factor = 4.0;

  // Throughput fell to 1/5th: implied per-epoch time grew 5x > 4x.
  BenchCompareResult result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.epochs_per_sec", 80.0)}), options);
  EXPECT_EQ(result.num_regressions, 1u);

  // Throughput fell to 1/3rd: within the factor.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.epochs_per_sec", 133.0)}), options);
  EXPECT_EQ(result.num_regressions, 0u);

  // Throughput doubled: fine.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.epochs_per_sec", 800.0)}), options);
  EXPECT_EQ(result.num_regressions, 0u);
}

TEST(CompareSnapshotsTest, MemoryUsesToleranceAndAbsoluteFloor) {
  BenchCompareOptions options;
  options.memory_tolerance = 0.5;
  options.memory_floor_mb = 16.0;
  const MetricsSnapshot baseline =
      Snapshot({Gauge("bench.x.peak_rss_mb", 10.0)});

  // 10 -> 30 MiB: under 10 * 1.5 + 16 = 31, allocator noise territory.
  BenchCompareResult result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.peak_rss_mb", 30.0)}), options);
  EXPECT_EQ(result.num_regressions, 0u);

  // 10 -> 32 MiB: past the floor, a real leak signal.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.peak_rss_mb", 32.0)}), options);
  EXPECT_EQ(result.num_regressions, 1u);
}

TEST(CompareSnapshotsTest, QualityGatesTightlyOnDecreaseOnly) {
  BenchCompareOptions options;
  options.quality_tolerance = 0.10;
  const MetricsSnapshot baseline =
      Snapshot({Gauge("bench.x.detection_ratio", 0.97)});

  // Small dip (a planted epoch tie-losing its screen slot): tolerated.
  BenchCompareResult result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.detection_ratio", 0.90)}), options);
  EXPECT_EQ(result.num_regressions, 0u);

  // Collapse: regression.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.detection_ratio", 0.50)}), options);
  EXPECT_EQ(result.num_regressions, 1u);

  // Improvement: fine.
  result = CompareSnapshots(
      baseline, Snapshot({Gauge("bench.x.detection_ratio", 1.0)}), options);
  EXPECT_EQ(result.num_regressions, 0u);
}

TEST(CompareSnapshotsTest, InfoMetricsNeverGate) {
  const BenchCompareResult result = CompareSnapshots(
      Snapshot({Gauge("bench.x.epochs", 1200.0),
                Gauge("bench.x.g128.t8.speedup", 4.0)}),
      Snapshot({Gauge("bench.x.epochs", 200.0),
                Gauge("bench.x.g128.t8.speedup", 0.5)}),
      BenchCompareOptions{});
  EXPECT_EQ(result.deltas.size(), 2u);
  EXPECT_EQ(result.num_regressions, 0u);
}

TEST(CompareSnapshotsTest, OnlySharedBenchGaugesCompared) {
  MetricsSnapshot::Entry counter;
  counter.name = "bench.x.some_count";
  counter.type = MetricType::kCounter;
  counter.counter_value = 7;

  const MetricsSnapshot baseline = Snapshot({
      Gauge("bench.x.total_s", 1.0),
      Gauge("bench.x.g1024.t1.total_s", 2.0),  // Full-run-only scenario.
      Gauge("detector.aligned.stop_iteration", 9.0),  // Not bench.*.
      counter,                                        // Not a gauge.
  });
  const MetricsSnapshot current = Snapshot({
      Gauge("bench.x.total_s", 1.1),
      Gauge("bench.x.new_quantity_s", 0.5),  // Added since the snapshot.
  });

  const BenchCompareResult result =
      CompareSnapshots(baseline, current, BenchCompareOptions{});
  EXPECT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas.front().name, "bench.x.total_s");
  ASSERT_EQ(result.baseline_only.size(), 1u);
  EXPECT_EQ(result.baseline_only.front(), "bench.x.g1024.t1.total_s");
  ASSERT_EQ(result.current_only.size(), 1u);
  EXPECT_EQ(result.current_only.front(), "bench.x.new_quantity_s");
  // A disjoint pair compares nothing — the CLI exits 3 on this.
  const BenchCompareResult disjoint = CompareSnapshots(
      Snapshot({Gauge("bench.a.x_s", 1.0)}),
      Snapshot({Gauge("bench.b.x_s", 1.0)}), BenchCompareOptions{});
  EXPECT_TRUE(disjoint.deltas.empty());
}

TEST(CompareSnapshotsTest, FormatResultNamesRegressions) {
  const BenchCompareResult result = CompareSnapshots(
      Snapshot({Gauge("bench.x.detection_ratio", 1.0)}),
      Snapshot({Gauge("bench.x.detection_ratio", 0.2)}),
      BenchCompareOptions{});
  const std::string text = FormatResult(result);
  EXPECT_NE(text.find("bench.x.detection_ratio"), std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("FAIL: 1 of 1"), std::string::npos);
}

TEST(LoadSnapshotFileTest, RoundTripsExporterOutput) {
  const MetricsSnapshot snapshot = Snapshot({
      Gauge("bench.x.total_s", 1.25),
      Gauge("bench.x.detection_ratio", 0.97),
  });
  const std::string path =
      ::testing::TempDir() + "/bench_compare_roundtrip.json";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << SnapshotToJsonLines(snapshot);
  }
  MetricsSnapshot loaded;
  std::string error;
  ASSERT_TRUE(LoadSnapshotFile(path, &loaded, &error)) << error;
  const BenchCompareResult result =
      CompareSnapshots(snapshot, loaded, BenchCompareOptions{});
  EXPECT_EQ(result.deltas.size(), 2u);
  EXPECT_EQ(result.num_regressions, 0u);
  for (const MetricDelta& delta : result.deltas) {
    EXPECT_DOUBLE_EQ(delta.ratio, 1.0) << delta.name;
  }
  std::remove(path.c_str());

  MetricsSnapshot missing;
  EXPECT_FALSE(LoadSnapshotFile("/nonexistent/bench.json", &missing, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace bench_compare
}  // namespace dcs
