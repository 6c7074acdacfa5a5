// End-to-end tests of the full DCS pipeline: synthesized multi-router
// traffic -> per-router streaming sketches -> encoded digests -> analysis
// center -> detection reports, cross-checked against the raw-aggregation
// ground truth.

#include <algorithm>

#include <gtest/gtest.h>

#include "baseline/raw_aggregation.h"
#include "dcs/dcs.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

// ---------- Aligned pipeline ----------

struct AlignedScenarioResult {
  AlignedReport report;
  std::vector<std::uint32_t> planted_routers;
  double compression = 0.0;
};

AlignedScenarioResult RunAlignedScenario(bool plant_content,
                                         std::uint64_t seed) {
  ScenarioOptions scenario;
  scenario.num_routers = 30;
  scenario.background_packets_per_router = 8000;
  scenario.seed = seed;
  PlantedContent plant;
  if (plant_content) {
    plant.content_id = 77;
    plant.content_bytes = 536 * 20;  // b = 20 packets.
    for (std::uint32_t r = 0; r < 25; ++r) plant.router_ids.push_back(r);
    plant.aligned = true;
    scenario.planted = {plant};
  }
  ContentCatalog catalog(1234);
  const auto traces = SynthesizeScenario(scenario, catalog);

  AlignedPipelineOptions aligned;
  aligned.sketch.num_bits = 1 << 13;
  aligned.n_prime = 128;
  aligned.detector.first_iteration_hopefuls = 128;
  aligned.detector.hopefuls = 64;
  UnalignedPipelineOptions unaligned;
  DcsMonitor monitor(aligned, unaligned);

  AlignedScenarioResult result;
  for (std::uint32_t r = 0; r < scenario.num_routers; ++r) {
    AlignedCollector collector(r, aligned.sketch);
    const auto epochs = traces[r].SplitIntoEpochs(traces[r].size());
    Digest digest = collector.ProcessEpoch(epochs[0]);
    // Ship through the wire format to exercise encode/decode.
    Digest decoded;
    EXPECT_TRUE(Digest::Decode(digest.Encode(), &decoded).ok());
    result.compression += decoded.CompressionFactor();
    EXPECT_TRUE(monitor.AddDigest(decoded).ok());
  }
  result.compression /= static_cast<double>(scenario.num_routers);
  result.report = monitor.AnalyzeAligned();
  result.planted_routers = plant.router_ids;
  return result;
}

TEST(AlignedIntegrationTest, DetectsPlantedContentAndNamesRouters) {
  const AlignedScenarioResult result = RunAlignedScenario(true, 11);
  ASSERT_TRUE(result.report.common_content_detected);
  // The reported routers are (mostly) the planted ones.
  std::size_t genuine = 0;
  for (std::uint32_t r : result.report.routers) {
    if (std::binary_search(result.planted_routers.begin(),
                           result.planted_routers.end(), r)) {
      ++genuine;
    }
  }
  EXPECT_GE(genuine, 20u);
  EXPECT_GE(genuine * 10, result.report.routers.size() * 9);
  // And enough signature columns to be actionable.
  EXPECT_GE(result.report.signature_columns.size(), 10u);
}

TEST(AlignedIntegrationTest, CleanTrafficStaysClean) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const AlignedScenarioResult result = RunAlignedScenario(false, seed);
    EXPECT_FALSE(result.report.common_content_detected) << "seed " << seed;
  }
}

TEST(AlignedIntegrationTest, DigestsCompressTraffic) {
  const AlignedScenarioResult result = RunAlignedScenario(true, 31);
  // 8k packets x ~600 B vs a 1 KiB bitmap: >1000x at paper scale; here the
  // bitmap is deliberately small, so expect >100x.
  EXPECT_GT(result.compression, 100.0);
}

// ---------- Unaligned pipeline ----------

struct UnalignedScenarioResult {
  UnalignedReport report;
  std::vector<std::uint32_t> planted_routers;
};

UnalignedScenarioResult RunUnalignedScenario(bool plant_content,
                                             std::uint64_t seed) {
  ScenarioOptions scenario;
  scenario.num_routers = 20;
  scenario.background_packets_per_router = 9500;
  scenario.seed = seed;
  PlantedContent plant;
  if (plant_content) {
    plant.content_id = 99;
    plant.content_bytes = 536 * 100;  // g = 100 packets.
    for (std::uint32_t r = 0; r < 16; ++r) plant.router_ids.push_back(r);
    plant.aligned = false;
    plant.instances_per_router = 4;
    scenario.planted = {plant};
  }
  ContentCatalog catalog(555);
  const auto traces = SynthesizeScenario(scenario, catalog);

  UnalignedPipelineOptions unaligned;
  unaligned.sketch.num_groups = 16;
  unaligned.er_threshold = 50;
  unaligned.detector.beta = 30;
  unaligned.detector.expand_min_edges = 3;
  AlignedPipelineOptions aligned;
  DcsMonitor monitor(aligned, unaligned);

  Rng offsets_rng(seed * 31 + 7);
  for (std::uint32_t r = 0; r < scenario.num_routers; ++r) {
    UnalignedCollector collector(r, unaligned.sketch, &offsets_rng);
    const auto epochs = traces[r].SplitIntoEpochs(traces[r].size());
    EXPECT_TRUE(monitor.AddDigest(collector.ProcessEpoch(epochs[0])).ok());
  }
  UnalignedScenarioResult result;
  result.report = monitor.AnalyzeUnaligned();
  result.planted_routers = plant.router_ids;
  return result;
}

TEST(UnalignedIntegrationTest, DetectsWormLikeContent) {
  const UnalignedScenarioResult result = RunUnalignedScenario(true, 5);
  ASSERT_TRUE(result.report.common_content_detected)
      << "largest cc " << result.report.largest_component;
  // Identified routers are mostly the planted ones.
  std::size_t genuine = 0;
  for (std::uint32_t r : result.report.routers) {
    if (std::binary_search(result.planted_routers.begin(),
                           result.planted_routers.end(), r)) {
      ++genuine;
    }
  }
  EXPECT_GE(genuine, 10u);
  EXPECT_GE(genuine * 10, result.report.routers.size() * 7);
  // One content was planted, so the per-content breakdown has one dominant
  // cluster holding most of the detected groups.
  ASSERT_FALSE(result.report.clusters.empty());
  EXPECT_GE(result.report.clusters[0].size() * 2,
            result.report.groups.size());
}

TEST(UnalignedIntegrationTest, CleanTrafficPassesErTest) {
  const UnalignedScenarioResult result = RunUnalignedScenario(false, 6);
  EXPECT_FALSE(result.report.common_content_detected)
      << "largest cc " << result.report.largest_component;
}

// ---------- Cross-check against the raw-aggregation ground truth ----------

TEST(CrossCheckTest, DcsAgreesWithRawAggregationOnPlantedScenario) {
  ScenarioOptions scenario;
  scenario.num_routers = 12;
  scenario.background_packets_per_router = 4000;
  scenario.seed = 77;
  PlantedContent plant;
  plant.content_id = 400;
  plant.content_bytes = 536 * 25;
  plant.router_ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  plant.aligned = true;
  scenario.planted = {plant};
  ContentCatalog catalog(2);
  const auto traces = SynthesizeScenario(scenario, catalog);

  // Ground truth.
  RawAggregationOptions raw_opts;
  raw_opts.min_routers = 8;
  RawAggregationDetector truth(raw_opts);
  for (std::uint32_t r = 0; r < traces.size(); ++r) {
    truth.AddRouterTrace(r, traces[r]);
  }
  const auto findings = truth.Findings();
  ASSERT_FALSE(findings.empty());

  // DCS.
  AlignedPipelineOptions aligned;
  aligned.sketch.num_bits = 1 << 13;
  aligned.n_prime = 128;
  aligned.detector.first_iteration_hopefuls = 128;
  aligned.detector.hopefuls = 64;
  DcsMonitor monitor(aligned, UnalignedPipelineOptions{});
  std::uint64_t digest_bytes = 0;
  for (std::uint32_t r = 0; r < traces.size(); ++r) {
    AlignedCollector collector(r, aligned.sketch);
    const auto epochs = traces[r].SplitIntoEpochs(traces[r].size());
    const Digest digest = collector.ProcessEpoch(epochs[0]);
    digest_bytes += digest.EncodedSizeBytes();
    ASSERT_TRUE(monitor.AddDigest(digest).ok());
  }
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_TRUE(report.common_content_detected);

  // Same routers as the ground truth (allowing DCS a small superset/subset).
  std::vector<std::uint32_t> truth_routers = findings[0].routers;
  std::size_t overlap = 0;
  for (std::uint32_t r : report.routers) {
    if (std::binary_search(truth_routers.begin(), truth_routers.end(), r)) {
      ++overlap;
    }
  }
  EXPECT_GE(overlap, 8u);

  // And DCS shipped orders of magnitude fewer bytes than raw aggregation.
  EXPECT_GT(truth.bytes_shipped(), 50 * digest_bytes);
}

}  // namespace
}  // namespace dcs
