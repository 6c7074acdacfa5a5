#include "dcs/signature_filter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcs/dcs.h"
#include "net/packetizer.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

BitmapSketchOptions SketchOptions() {
  BitmapSketchOptions opts;
  opts.num_bits = 1 << 13;
  return opts;
}

Packet MakePacket(std::string payload) {
  Packet pkt;
  pkt.flow = FlowLabel{1, 2, 3, 4, 6};
  pkt.payload = std::move(payload);
  return pkt;
}

TEST(SignatureFilterTest, MatchesPacketsWhoseHashIsInSignature) {
  const BitmapSketchOptions opts = SketchOptions();
  // Derive the signature from the sketch itself: insert a packet, find its
  // bit, build a filter on it.
  BitmapSketch sketch(opts);
  Packet pkt = MakePacket("the worm body segment");
  sketch.Update(pkt);
  std::vector<std::size_t> columns;
  sketch.bits().AppendSetBits(&columns);
  ASSERT_EQ(columns.size(), 1u);

  SignatureFilter filter(columns, opts);
  EXPECT_TRUE(filter.Matches(pkt));
  EXPECT_FALSE(filter.Matches(MakePacket("innocent other payload")));
  EXPECT_FALSE(filter.Matches(MakePacket("")));  // No payload: not sketched.
}

TEST(SignatureFilterTest, FalseMatchRateTracksSignatureSize) {
  const BitmapSketchOptions opts = SketchOptions();
  std::vector<std::size_t> columns;
  for (std::size_t c = 0; c < 64; ++c) columns.push_back(c * 128);
  SignatureFilter filter(columns, opts);
  EXPECT_DOUBLE_EQ(filter.FalseMatchProbability(), 64.0 / 8192.0);

  Rng rng(3);
  int matches = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::string payload(32, '\0');
    for (char& c : payload) c = static_cast<char>(rng.UniformInt(256));
    matches += filter.Matches(MakePacket(payload)) ? 1 : 0;
  }
  const double empirical = static_cast<double>(matches) / trials;
  EXPECT_NEAR(empirical, 64.0 / 8192.0, 0.004);
}

TEST(SignatureFilterTest, EndToEndDetectionToFiltering) {
  // Full loop: plant content, detect, build a filter from the report, and
  // verify the filter flags exactly the content's packets at a router.
  ScenarioOptions scenario;
  scenario.num_routers = 24;
  scenario.background_packets_per_router = 4000;
  PlantedContent plant;
  plant.content_id = 7;
  plant.content_bytes = 536 * 15;
  for (std::uint32_t r = 0; r < 18; ++r) plant.router_ids.push_back(r);
  plant.aligned = true;
  scenario.planted = {plant};
  ContentCatalog catalog(21);
  const auto traces = SynthesizeScenario(scenario, catalog);

  AlignedPipelineOptions options;
  options.sketch = SketchOptions();
  options.n_prime = 128;
  options.detector.first_iteration_hopefuls = 128;
  options.detector.hopefuls = 64;
  DcsMonitor monitor(options, UnalignedPipelineOptions{});
  for (std::uint32_t r = 0; r < scenario.num_routers; ++r) {
    AlignedCollector collector(r, options.sketch);
    const auto epochs = traces[r].SplitIntoEpochs(traces[r].size());
    ASSERT_TRUE(monitor.AddDigest(collector.ProcessEpoch(epochs[0])).ok());
  }
  const AlignedReport report = monitor.AnalyzeAligned();
  ASSERT_TRUE(report.common_content_detected);

  SignatureFilter filter(report.signature_columns, options.sketch);
  // The content's own packets must match.
  PacketizerOptions packetizer;
  const auto content_packets = PacketizeObject(
      FlowLabel{9, 9, 9, 9, 6}, "", catalog.ContentBytes(7, 536 * 15),
      packetizer);
  std::size_t content_matches = 0;
  for (const Packet& pkt : content_packets) {
    content_matches += filter.Matches(pkt) ? 1u : 0u;
  }
  EXPECT_GE(content_matches, content_packets.size() - 1);

  // Background traffic rarely matches (signature ~15-25 of 8192 bits).
  std::size_t background_matches = 0;
  std::size_t background_total = 0;
  for (const Packet& pkt : traces[20]) {  // A router without the content.
    if (pkt.payload.empty()) continue;
    ++background_total;
    background_matches += filter.Matches(pkt) ? 1u : 0u;
  }
  EXPECT_LT(static_cast<double>(background_matches) /
                static_cast<double>(background_total),
            4.0 * filter.FalseMatchProbability() + 0.01);
}

TEST(MonitorEncodedDigestTest, AddEncodedRoundTrip) {
  AlignedPipelineOptions aligned;
  DcsMonitor monitor(aligned, UnalignedPipelineOptions{});
  Digest digest;
  digest.router_id = 3;
  digest.kind = DigestKind::kAligned;
  digest.rows.push_back(BitVector(512));
  ASSERT_TRUE(monitor.AddEncodedDigest(digest.Encode()).ok());
  EXPECT_EQ(monitor.num_aligned_digests(), 1u);
  // Corrupt bytes are rejected with Corruption, not added.
  std::vector<std::uint8_t> bad = digest.Encode();
  bad[10] ^= 0xFF;
  EXPECT_EQ(monitor.AddEncodedDigest(bad).code(), Status::Code::kCorruption);
  EXPECT_EQ(monitor.num_aligned_digests(), 1u);
}

}  // namespace
}  // namespace dcs
