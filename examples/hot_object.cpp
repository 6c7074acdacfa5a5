// Hot object: aligned common content across epochs, with the raw-aggregation
// strawman for comparison.
//
// A newly released file spreads over P2P: identical byte-for-byte copies
// (the aligned case) cross a growing set of links over three measurement
// epochs. The monitor is re-armed each epoch; detection kicks in once the
// pattern crosses the detectable threshold. The raw-aggregation baseline
// finds the same content but has to ship every byte to the center.
//
// Build & run:   ./build/examples/hot_object

#include <cstdio>
#include <utility>
#include <vector>

#include "baseline/raw_aggregation.h"
#include "dcs/dcs.h"
#include "dcs/epoch_tracker.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace {

constexpr std::uint32_t kRouters = 30;

std::vector<dcs::PacketTrace> EpochTraffic(std::uint64_t epoch,
                                           std::uint32_t spread_routers,
                                           const dcs::ContentCatalog& catalog) {
  dcs::ScenarioOptions scenario;
  scenario.num_routers = kRouters;
  scenario.background_packets_per_router = 8000;
  scenario.seed = 1000 + epoch;
  if (spread_routers >= 2) {
    dcs::PlantedContent object;
    object.content_id = 31337;
    object.content_bytes = 536 * 25;  // 25-packet hot file.
    for (std::uint32_t r = 0; r < spread_routers; ++r) {
      object.router_ids.push_back(r);
    }
    object.aligned = true;
    scenario.planted = {object};
  }
  return dcs::SynthesizeScenario(scenario, catalog);
}

}  // namespace

int main() {
  dcs::ContentCatalog catalog(3);

  dcs::AlignedPipelineOptions options;
  options.sketch.num_bits = 1 << 13;
  options.n_prime = 128;
  options.detector.first_iteration_hopefuls = 128;
  options.detector.hopefuls = 64;

  dcs::DcsMonitor monitor(options, dcs::UnalignedPipelineOptions{});

  // Cross-epoch smoothing (the paper runs detection every second and lets
  // persistence separate real spreads from one-off flukes).
  dcs::EpochTrackerOptions tracker_opts;
  tracker_opts.window_epochs = 3;
  tracker_opts.min_detections = 2;
  dcs::EpochTracker tracker(tracker_opts);

  // The file reaches 4, 12, 24, then 24 links across four epochs.
  const std::uint32_t spread[] = {4, 12, 24, 24};
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    const auto traces = EpochTraffic(epoch, spread[epoch], catalog);
    monitor.ClearEpoch();
    std::uint64_t digest_bytes = 0;
    for (std::uint32_t router = 0; router < kRouters; ++router) {
      dcs::AlignedCollector collector(router, options.sketch);
      const auto epochs =
          traces[router].SplitIntoEpochs(traces[router].size());
      dcs::Digest digest = collector.ProcessEpoch(epochs[0]);
      digest_bytes += digest.EncodedSizeBytes();
      const dcs::Status status = monitor.AddDigest(std::move(digest));
      if (!status.ok()) {
        std::fprintf(stderr, "AddDigest: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    const dcs::AlignedReport report = monitor.AnalyzeAligned();
    std::printf("epoch %llu: object on %2u links -> %s",
                static_cast<unsigned long long>(epoch), spread[epoch],
                report.common_content_detected ? "DETECTED" : "below threshold");
    if (report.common_content_detected) {
      std::printf(" (%zu routers, %zu signature columns)",
                  report.routers.size(), report.signature_columns.size());
    }
    tracker.RecordEpoch(report.common_content_detected, report.routers);
    if (tracker.PersistentDetection()) {
      std::printf("\n          persistent across epochs -> ALARM; stable "
                  "routers: %zu\n", tracker.StableRouters().size());
    } else {
      std::printf("\n");
    }

    // Raw-aggregation comparison on the final epoch.
    if (epoch == 3) {
      dcs::RawAggregationOptions raw_opts;
      raw_opts.min_routers = 10;
      dcs::RawAggregationDetector raw(raw_opts);
      for (std::uint32_t r = 0; r < kRouters; ++r) {
        raw.AddRouterTrace(r, traces[r]);
      }
      const auto findings = raw.Findings();
      std::printf(
          "\n[raw aggregation strawman] found %zu common fingerprints but "
          "shipped %.1f MB to the center;\nDCS shipped %.1f KB "
          "(%.0fx less) for the same verdict.\n",
          findings.size(), static_cast<double>(raw.bytes_shipped()) / 1e6,
          static_cast<double>(digest_bytes) / 1e3,
          static_cast<double>(raw.bytes_shipped()) /
              static_cast<double>(digest_bytes));
    }
  }
  return 0;
}
