// Differential determinism suite for the pooled unaligned stages: λ
// calibration, correlation-graph construction,
// and full DcsMonitor unaligned reports must be bit-identical between the
// serial path (no pool) and pools of 1, 2, and 8 threads. Every pooled
// stage merges per-shard results under a total order, so any divergence
// here is a scheduling leak into the detection output. Peeling and the
// survivor scan run serially; the monitor comparisons cover them end to
// end.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lambda_table.h"
#include "analysis/unaligned_detector.h"
#include "analysis/unaligned_graph_builder.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dcs/monitor.h"
#include "obs/metrics.h"
#include "sketch/digest.h"

namespace dcs {
namespace {

// Builds a matrix of `groups` groups x `arrays` rows of `bits` bits, each
// row filled with ~fill ones at random.
BitMatrix RandomGroupMatrix(std::size_t groups, std::size_t arrays,
                            std::size_t bits, double fill, Rng* rng) {
  BitMatrix matrix(groups * arrays, bits);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < bits; ++c) {
      if (rng->Bernoulli(fill)) matrix.Set(r, c);
    }
  }
  return matrix;
}

// Injects a shared signal: `count` common indices set in one row of each
// listed group.
void InjectSignal(BitMatrix* matrix, std::size_t arrays,
                  const std::vector<std::size_t>& groups, std::size_t count,
                  Rng* rng) {
  std::vector<std::size_t> indices;
  while (indices.size() < count) {
    indices.push_back(rng->UniformInt(matrix->cols()));
  }
  for (std::size_t g : groups) {
    const std::size_t row = g * arrays;  // First array of the group.
    for (std::size_t c : indices) matrix->Set(row, c);
  }
}

// Shared fixture owning one pool per tested thread count.
class UnalignedParallelTest : public ::testing::Test {
 protected:
  UnalignedParallelTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

TEST_F(UnalignedParallelTest, CalibrationMatchesLazyThresholds) {
  // A calibrated table must hold exactly the thresholds the lazy path
  // computes, and Calibrate must warm every pair of observed weights.
  const std::vector<std::uint32_t> weights = {0, 3, 17, 17, 64, 120, 121,
                                              256, 300, 301, 302, 511};
  for (ThreadPool* pool : pools()) {
    const LambdaTable calibrated(512, 1e-5);
    calibrated.Calibrate(weights, pool);
    const std::uint64_t after_calibration = calibrated.cache_misses();
    const LambdaTable lazy(512, 1e-5);
    for (std::uint32_t i : weights) {
      for (std::uint32_t j : weights) {
        if (i == 0 || j == 0) continue;
        EXPECT_EQ(calibrated.Threshold(i, j), lazy.Threshold(i, j))
            << i << "," << j << " @ " << pool->num_threads() << " threads";
      }
    }
    // Every lookup above hit the warm cache.
    EXPECT_EQ(calibrated.cache_misses(), after_calibration)
        << pool->num_threads() << " threads";
    // 10 distinct non-zero weights -> 55 unordered pairs, each computed
    // exactly once regardless of sharding.
    EXPECT_EQ(after_calibration, 55u) << pool->num_threads() << " threads";
    // A repeat with the same weights computes nothing.
    calibrated.Calibrate(weights, pool);
    EXPECT_EQ(calibrated.cache_misses(), after_calibration)
        << pool->num_threads() << " threads";
  }
}

TEST_F(UnalignedParallelTest, GraphBuildMatchesSerial) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    BitMatrix matrix = RandomGroupMatrix(60, 4, 512, 0.2, &rng);
    InjectSignal(&matrix, 4, {3, 17, 29, 41, 55}, 100, &rng);
    const LambdaTable lambda(512, 1e-6);
    GraphBuilderOptions serial;
    serial.arrays_per_group = 4;
    const Graph reference = BuildCorrelationGraph(matrix, lambda, serial);
    EXPECT_GE(reference.num_edges(), 10u) << "seed " << seed;
    for (ThreadPool* pool : pools()) {
      GraphBuilderOptions parallel = serial;
      parallel.scan.pool = pool;
      // A fresh table per run: the pooled build must match even without
      // the serial build's warm cache.
      const LambdaTable cold(512, 1e-6);
      const Graph pooled = BuildCorrelationGraph(matrix, cold, parallel);
      EXPECT_EQ(reference.edges(), pooled.edges())
          << "seed " << seed << ", " << pool->num_threads() << " threads";
    }
  }
}

// The fused build scans once for two tables; each of its edge lists must
// equal a single-table build with that table alone, whichever order the
// tables come in, on any pool.
TEST_F(UnalignedParallelTest, FusedBuildMatchesTwoSingleBuilds) {
  const double p_sparse = 1e-6;
  const double p_dense = 1e-3;
  std::vector<ThreadPool*> configs = pools();
  configs.insert(configs.begin(), nullptr);
  for (std::uint64_t seed = 41; seed <= 50; ++seed) {
    Rng rng(seed);
    BitMatrix matrix = RandomGroupMatrix(48, 4, 512, 0.2, &rng);
    InjectSignal(&matrix, 4, {1, 9, 17, 25, 33, 41}, 100, &rng);
    InjectSignal(&matrix, 4, {4, 12, 20, 28}, 45, &rng);
    GraphBuilderOptions serial;
    serial.arrays_per_group = 4;
    const Graph sparse =
        BuildCorrelationGraph(matrix, LambdaTable(512, p_sparse), serial);
    const Graph dense =
        BuildCorrelationGraph(matrix, LambdaTable(512, p_dense), serial);
    ASSERT_GT(dense.num_edges(), sparse.num_edges()) << "seed " << seed;
    ASSERT_GT(sparse.num_edges(), 0u) << "seed " << seed;
    // Tables kept across the configurations below, as a monitor keeps them
    // across epochs: only the first build calibrates.
    const LambdaTable kept_sparse(512, p_sparse);
    const LambdaTable kept_dense(512, p_dense);
    for (ThreadPool* pool : configs) {
      GraphBuilderOptions options = serial;
      options.scan.pool = pool;
      const std::size_t threads = pool == nullptr ? 0 : pool->num_threads();
      const auto [s1, d1] =
          BuildCorrelationGraphs(matrix, kept_sparse, kept_dense, options);
      const auto [d2, s2] = BuildCorrelationGraphs(
          matrix, LambdaTable(512, p_dense), LambdaTable(512, p_sparse),
          options);
      for (const Graph* g : {&s1, &s2}) {
        EXPECT_EQ(g->edges(), sparse.edges())
            << "seed " << seed << ", " << threads << " threads";
      }
      for (const Graph* g : {&d1, &d2}) {
        EXPECT_EQ(g->edges(), dense.edges())
            << "seed " << seed << ", " << threads << " threads";
      }
    }
  }
}

// ---------- Full monitor epoch ----------

Digest UnalignedDigest(std::uint32_t router, std::size_t groups,
                       std::size_t arrays, std::size_t bits, Rng* rng) {
  Digest digest;
  digest.router_id = router;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = static_cast<std::uint32_t>(groups);
  digest.arrays_per_group = static_cast<std::uint32_t>(arrays);
  digest.rows.reserve(groups * arrays);
  for (std::size_t r = 0; r < groups * arrays; ++r) {
    BitVector row(bits);
    for (std::size_t c = 0; c < bits; ++c) {
      if (rng->Bernoulli(0.2)) row.Set(c);
    }
    digest.rows.push_back(std::move(row));
  }
  return digest;
}

// Routers 0..3, 12 groups each; the first group of routers 0-2 shares a
// strong signal so the epoch alarms.
std::vector<Digest> EpochDigests(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t bits = 512;
  const std::size_t arrays = 4;
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < 4; ++r) {
    digests.push_back(UnalignedDigest(r, 12, arrays, bits, &rng));
  }
  std::vector<std::size_t> indices;
  while (indices.size() < 130) {
    indices.push_back(rng.UniformInt(bits));
  }
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (std::uint32_t g : {0u, 4u, 8u}) {
      BitVector& row = digests[r].rows[g * arrays];
      for (std::size_t c : indices) row.Set(c);
    }
  }
  return digests;
}

void ExpectSameReport(const UnalignedReport& serial,
                      const UnalignedReport& pooled,
                      std::size_t num_threads) {
  EXPECT_EQ(serial.common_content_detected, pooled.common_content_detected)
      << num_threads << " threads";
  EXPECT_EQ(serial.largest_component, pooled.largest_component)
      << num_threads << " threads";
  EXPECT_EQ(serial.er_threshold, pooled.er_threshold)
      << num_threads << " threads";
  EXPECT_EQ(serial.groups, pooled.groups) << num_threads << " threads";
  EXPECT_EQ(serial.clusters, pooled.clusters) << num_threads << " threads";
  EXPECT_EQ(serial.routers, pooled.routers) << num_threads << " threads";
  EXPECT_EQ(serial.num_vertices, pooled.num_vertices)
      << num_threads << " threads";
  EXPECT_EQ(serial.num_edges, pooled.num_edges)
      << num_threads << " threads";
}

TEST_F(UnalignedParallelTest, MonitorReportsMatchSerial) {
  UnalignedPipelineOptions unaligned;
  unaligned.er_threshold = 6;
  unaligned.detector.beta = 9;
  unaligned.detector.expand_min_edges = 2;
  const AlignedPipelineOptions aligned;
  for (std::uint64_t seed = 31; seed <= 32; ++seed) {
    const std::vector<Digest> digests = EpochDigests(seed);
    DcsMonitor serial(aligned, unaligned);
    for (const Digest& d : digests) {
      ASSERT_TRUE(serial.AddDigest(d).ok());
    }
    const UnalignedReport reference = serial.AnalyzeUnaligned();
    EXPECT_TRUE(reference.common_content_detected) << "seed " << seed;
    for (ThreadPool* pool : pools()) {
      DcsMonitor pooled(aligned, unaligned, AnalysisContext{pool});
      for (const Digest& d : digests) {
        ASSERT_TRUE(pooled.AddDigest(d).ok());
      }
      ExpectSameReport(reference, pooled.AnalyzeUnaligned(),
                       pool->num_threads());
    }
  }
}

// The unaligned analysis scans the row pairs once: the ER graph and the
// core graph come from the same scan, whether or not the epoch fires.
TEST_F(UnalignedParallelTest, EachGraphIsScannedOncePerAnalysis) {
  UnalignedPipelineOptions unaligned;
  unaligned.er_threshold = 6;
  unaligned.detector.beta = 9;
  unaligned.detector.expand_min_edges = 2;
  DcsMonitor firing(AlignedPipelineOptions{}, unaligned,
                    AnalysisContext{&pool2_});
  for (const Digest& d : EpochDigests(31)) {
    ASSERT_TRUE(firing.AddDigest(d).ok());
  }
  Rng rng(77);
  DcsMonitor quiet(AlignedPipelineOptions{}, unaligned);
  for (std::uint32_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(quiet.AddDigest(UnalignedDigest(r, 12, 4, 512, &rng)).ok());
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const Counter& scans = ObsCounter("pairscan.scans");
  auto scans_during = [&scans](auto analyze) {
    const std::uint64_t before = scans.value();
    analyze();
    return scans.value() - before;
  };
  EXPECT_EQ(scans_during([&] {
              EXPECT_TRUE(firing.AnalyzeUnaligned().common_content_detected);
            }),
            1u);
  EXPECT_EQ(scans_during([&] {
              EXPECT_FALSE(quiet.AnalyzeUnaligned().common_content_detected);
            }),
            1u);
  // Fewer vertices than core_p1_times_n leave no valid core graph: the
  // analysis builds the ER graph alone, in one scan.
  DcsMonitor tiny(AlignedPipelineOptions{}, UnalignedPipelineOptions{});
  for (std::uint32_t r = 0; r < 2; ++r) {
    ASSERT_TRUE(tiny.AddDigest(UnalignedDigest(r, 2, 4, 512, &rng)).ok());
  }
  EXPECT_EQ(scans_during([&] {
              EXPECT_FALSE(tiny.AnalyzeUnaligned().common_content_detected);
            }),
            1u);
  registry.set_enabled(was_enabled);
}

// One epoch in the benchmark's unaligned shape (10 arrays of 1024 bits at
// about 1/4 fill per group), scaled to 16 groups per router. A planted
// epoch gives groups 0, 5 and 10 of every router 160 shared indices in
// their first array; `missing` names a router that stays silent.
std::vector<Digest> WormEpoch(std::uint64_t seed, bool planted,
                              std::uint32_t missing) {
  const std::size_t groups = 16;
  const std::size_t arrays = 10;
  const std::size_t bits = 1024;
  Rng rng(seed);
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < 4; ++r) {
    if (r == missing) continue;
    Digest digest;
    digest.router_id = r;
    digest.kind = DigestKind::kUnaligned;
    digest.num_groups = static_cast<std::uint32_t>(groups);
    digest.arrays_per_group = static_cast<std::uint32_t>(arrays);
    for (std::size_t row = 0; row < groups * arrays; ++row) {
      BitVector bits_row(bits);
      std::uint64_t* words = bits_row.mutable_words();
      for (std::size_t w = 0; w < bits_row.num_words(); ++w) {
        words[w] = rng.Next() & rng.Next();
      }
      digest.rows.push_back(std::move(bits_row));
    }
    if (planted) {
      for (const std::size_t g : {0u, 5u, 10u}) {
        for (std::size_t k = 0; k < 160; ++k) {
          digest.rows[g * arrays].Set((k * 797 + seed) % bits);
        }
      }
    }
    digests.push_back(std::move(digest));
  }
  return digests;
}

// The lambda tables outlive the epoch: one monitor recycled through
// ClearEpoch() must report exactly what a fresh monitor reports for every
// epoch, through a change of vertex count (and so of p*) and back, while a
// repeated epoch calibrates nothing and every analysis scans once.
TEST_F(UnalignedParallelTest, RecycledMonitorMatchesFreshMonitors) {
  UnalignedPipelineOptions unaligned;
  unaligned.er_threshold = 6;
  unaligned.detector.beta = 9;
  unaligned.detector.expand_min_edges = 2;
  const AlignedPipelineOptions aligned;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const Counter& scans = ObsCounter("pairscan.scans");
  const Counter& entries = ObsCounter("unaligned.lambda_calibrated_entries");

  DcsMonitor recycled(aligned, unaligned, AnalysisContext{&pool2_});
  std::size_t fired = 0;
  for (std::uint64_t epoch = 0; epoch < 20; ++epoch) {
    const std::vector<Digest> digests =
        WormEpoch(100 + epoch, epoch % 3 == 0, epoch == 9 ? 2u : 4u);
    DcsMonitor fresh(aligned, unaligned);
    for (const Digest& d : digests) ASSERT_TRUE(fresh.AddDigest(d).ok());
    const UnalignedReport expected = fresh.AnalyzeUnaligned();
    fired += expected.common_content_detected ? 1 : 0;

    for (int repeat = 0; repeat < 2; ++repeat) {
      recycled.ClearEpoch();
      for (const Digest& d : digests) ASSERT_TRUE(recycled.AddDigest(d).ok());
      const std::uint64_t scans_before = scans.value();
      const std::uint64_t entries_before = entries.value();
      const UnalignedReport report = recycled.AnalyzeUnaligned();
      EXPECT_EQ(scans.value() - scans_before, 1u) << "epoch " << epoch;
      EXPECT_TRUE(report == expected)
          << "epoch " << epoch << "\n  recycled " << report.ToString()
          << "\n  fresh    " << expected.ToString();
      if (repeat == 1) {
        EXPECT_EQ(entries.value(), entries_before)
            << "epoch " << epoch << " repeated";
      }
    }
  }
  registry.set_enabled(was_enabled);
  // Both branches of the analysis are covered.
  EXPECT_GE(fired, 3u);
  EXPECT_LE(fired, 17u);
}

TEST_F(UnalignedParallelTest, DegenerateInputsAreSafeOnPools) {
  UnalignedDetectorOptions options;
  options.beta = 4;
  Graph empty(0);
  empty.Finalize();
  Graph tiny(3);
  tiny.AddEdge(0, 1);
  tiny.Finalize();
  EXPECT_TRUE(DetectUnalignedPattern(empty, options).core.empty());
  EXPECT_EQ(DetectUnalignedPattern(tiny, options).core.size(), 3u);
  for (ThreadPool* pool : pools()) {
    // One-group matrices produce pairless scans on every pool.
    BitMatrix one(2, 64);
    one.Set(0, 3);
    const LambdaTable lambda(64, 1e-3);
    GraphBuilderOptions builder;
    builder.arrays_per_group = 2;
    builder.scan.pool = pool;
    const Graph g = BuildCorrelationGraph(one, lambda, builder);
    EXPECT_EQ(g.num_vertices(), 1u);
    EXPECT_EQ(g.num_edges(), 0u);
  }
}

}  // namespace
}  // namespace dcs
