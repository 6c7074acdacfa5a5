// Back-pressure / shedding policy tests for the EpochRing
// (docs/STREAMING.md): drop-oldest keeps the report stream contiguous and
// records every missed epoch as an EpochTracker gap; degrade mode screens
// the aligned matrix narrower, recalibrates that evidence bar via
// EpochCalibration and leaves the unaligned analysis at full fidelity;
// block analyzes everything and only counts how often it had to; the
// ingest.* and soak.* metrics count what was dropped. A complete epoch
// closes on its last digest and is never shed or degraded, so the overload
// cases run a fleet one router larger than the routers that report: every
// epoch is short, and closes only when the window moves past it.

#include "dcs/epoch_ring.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

constexpr std::uint32_t kRouters = 8;
constexpr std::size_t kBits = 512;

Digest NoiseDigest(std::uint64_t epoch, std::uint32_t router) {
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kAligned;
  digest.packets_covered = 10;
  digest.raw_bytes_covered = 10000;
  BitVector row(kBits);
  Rng rng(epoch * 104729 + router * 31 + 1);
  for (std::size_t i = 0; i < kBits; ++i) {
    if (rng.Bernoulli(0.5)) row.Set(i);
  }
  digest.rows.push_back(std::move(row));
  return digest;
}

EpochRingOptions SmallRing(ShedPolicy policy) {
  EpochRingOptions options;
  options.capacity = 2;
  options.analysis_budget_per_offer = 1;
  options.policy = policy;
  options.aligned.n_prime = 64;
  options.aligned.detector.first_iteration_hopefuls = 64;
  options.aligned.detector.hopefuls = 32;
  options.aligned.incremental_weights = true;
  // Router kRouters is down: no epoch is ever complete.
  options.ingest.expected_routers = kRouters + 1;
  return options;
}

void OfferEpoch(EpochRing* ring, std::uint64_t epoch) {
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    ASSERT_TRUE(ring->Offer(NoiseDigest(epoch, r)).ok());
  }
}

TEST(BackpressureTest, DropOldestKeepsWindowContiguousAndRecordsGaps) {
  EpochRing ring(SmallRing(ShedPolicy::kDropOldest));
  OfferEpoch(&ring, 0);
  OfferEpoch(&ring, 1);
  // Jump to epoch 9: heads 0..7 close in one advance — 0 within budget
  // (analyzed), 1..7 over budget (shed).
  OfferEpoch(&ring, 9);
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 10u);
  for (std::uint64_t e = 0; e < reports.size(); ++e) {
    EXPECT_EQ(reports[e].epoch_id, e) << "window lost contiguity";
  }
  EXPECT_FALSE(reports[0].shed);
  for (std::uint64_t e = 1; e <= 7; ++e) {
    EXPECT_TRUE(reports[e].shed) << "epoch " << e;
    EXPECT_FALSE(reports[e].degraded_analysis);
  }
  EXPECT_FALSE(reports[8].shed);
  EXPECT_FALSE(reports[9].shed);
  // Epoch 1 had real digests when it was shed — the evidence is recorded
  // as lost, not silently forgotten.
  EXPECT_EQ(reports[1].digests_accepted, kRouters);

  EXPECT_EQ(ring.stats().epochs_shed, 7u);
  EXPECT_EQ(ring.stats().epochs_analyzed, 3u);
  EXPECT_EQ(ring.stats().blocked_advances, 0u);

  // Every missed epoch is an EpochTracker gap: the k-of-w window aged
  // through the shed stretch instead of staying optimistically stale.
  EXPECT_EQ(ring.tracker().gaps_seen(), 7u);
  EXPECT_EQ(ring.tracker().epochs_seen(), 10u);
  // Default window 5 holds epochs 5..9: gaps 5, 6, 7.
  EXPECT_EQ(ring.tracker().gaps_in_window(), 3u);
}

TEST(BackpressureTest, DegradeModeRecalibratesViaEpochCalibration) {
  EpochRing ring(SmallRing(ShedPolicy::kDegrade));
  OfferEpoch(&ring, 0);
  OfferEpoch(&ring, 1);
  // Advancing to epoch 3 closes head 0 (budget, full fidelity) and head 1
  // (over budget, degraded) — both with a full set of digests.
  OfferEpoch(&ring, 3);
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_FALSE(reports[0].degraded_analysis);
  EXPECT_TRUE(reports[1].degraded_analysis);
  EXPECT_FALSE(reports[1].shed);
  EXPECT_EQ(reports[1].digests_accepted, kRouters);
  EXPECT_EQ(ring.stats().epochs_degraded, 1u);
  EXPECT_EQ(ring.tracker().gaps_seen(), 0u);

  // The degraded epoch was analyzed against a narrower screen, and its
  // calibration says so: the detectable-width threshold was recomputed for
  // n' / 4 and differs from the full-fidelity one. (The direction depends
  // on the regime — with full-height patterns a narrower screen admits
  // fewer heavy noise columns — so only the recalibration itself is
  // asserted, not its sign.)
  const EpochCalibration& full = reports[0].aligned.calibration;
  const EpochCalibration& degraded = reports[1].aligned.calibration;
  ASSERT_TRUE(full.populated());
  ASSERT_TRUE(degraded.populated());
  EXPECT_EQ(full.observed_routers, kRouters);
  EXPECT_EQ(degraded.observed_routers, kRouters);
  ASSERT_GT(full.aligned_detectable_columns, 0);
  ASSERT_GT(degraded.aligned_detectable_columns, 0);
  EXPECT_NE(degraded.aligned_detectable_columns,
            full.aligned_detectable_columns);
  // The NNO bar itself depends only on the matrix shape, not the screen.
  EXPECT_EQ(degraded.aligned_min_nno_columns, full.aligned_min_nno_columns);

  // And the degraded analysis is exactly what a monitor configured with
  // the degraded options would have produced — no hidden third pipeline.
  EpochRingOptions base = SmallRing(ShedPolicy::kDegrade);
  AlignedPipelineOptions cheap = base.aligned;
  cheap.n_prime = base.aligned.n_prime / base.degraded_n_prime_divisor;
  cheap.detector.first_iteration_hopefuls =
      std::min(cheap.detector.first_iteration_hopefuls, cheap.n_prime);
  IngestOptions pinned = base.ingest;
  pinned.lock_epoch_to_first = false;
  pinned.expected_epoch = 1;
  pinned.max_epoch_skew = 0;
  DcsMonitor expected(cheap, UnalignedPipelineOptions{}, AnalysisContext{},
                      pinned);
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    ASSERT_TRUE(expected.AddDigest(NoiseDigest(1, r)).ok());
  }
  EXPECT_EQ(reports[1].aligned, expected.AnalyzeAligned());
}

constexpr std::uint32_t kWormRouters = 4;

// One router's unaligned digest in the benchmark's group shape (10 arrays
// of 1024 bits at about 1/4 fill), 16 groups. A planted epoch gives groups
// 0, 5 and 10 of the router 160 shared indices in their first array.
Digest WormDigest(std::uint64_t epoch, std::uint32_t router, bool planted) {
  const std::size_t groups = 16;
  const std::size_t arrays = 10;
  const std::size_t bits = 1024;
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = static_cast<std::uint32_t>(groups);
  digest.arrays_per_group = static_cast<std::uint32_t>(arrays);
  Rng rng(epoch * 7919 + router * 13 + 5);
  for (std::size_t r = 0; r < groups * arrays; ++r) {
    BitVector row(bits);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = rng.Next() & rng.Next();
    }
    digest.rows.push_back(std::move(row));
  }
  if (planted) {
    for (const std::size_t g : {0u, 5u, 10u}) {
      for (std::size_t k = 0; k < 160; ++k) {
        digest.rows[g * arrays].Set((k * 797 + 3) % bits);
      }
    }
  }
  return digest;
}

EpochRingOptions WormRing() {
  EpochRingOptions options = SmallRing(ShedPolicy::kDegrade);
  // Router kWormRouters is down: no epoch is ever complete.
  options.ingest.expected_routers = kWormRouters + 1;
  options.unaligned.er_threshold = 6;
  options.unaligned.detector.beta = 9;
  options.unaligned.detector.expand_min_edges = 2;
  return options;
}

void OfferWormEpoch(EpochRing* ring, std::uint64_t epoch, bool planted) {
  for (std::uint32_t r = 0; r < kWormRouters; ++r) {
    ASSERT_TRUE(ring->Offer(WormDigest(epoch, r, planted)).ok());
  }
}

TEST(BackpressureTest, DegradeModeAnalyzesUnalignedAtFullFidelity) {
  const EpochRingOptions options = WormRing();
  EpochRing ring(options);
  OfferWormEpoch(&ring, 0, false);
  OfferWormEpoch(&ring, 1, true);
  // Advancing to epoch 3 closes head 0 at full fidelity and the planted
  // head 1 degraded.
  OfferWormEpoch(&ring, 3, false);
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_FALSE(reports[0].degraded_analysis);
  ASSERT_TRUE(reports[1].degraded_analysis);
  EXPECT_EQ(ring.stats().epochs_degraded, 1u);

  // Degrading narrows only the aligned screen: the unaligned half scans
  // every group pair, so the planted content (12 of 64 groups) is found
  // and the report is the one-shot monitor's under the ring's full
  // options.
  const UnalignedReport& degraded = reports[1].unaligned;
  EXPECT_TRUE(degraded.common_content_detected);
  EXPECT_EQ(degraded.num_vertices, 16u * kWormRouters);
  EXPECT_EQ(degraded.routers, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  IngestOptions pinned = options.ingest;
  pinned.lock_epoch_to_first = false;
  pinned.expected_epoch = 1;
  pinned.max_epoch_skew = 0;
  DcsMonitor expected(options.aligned, options.unaligned, AnalysisContext{},
                      pinned);
  for (std::uint32_t r = 0; r < kWormRouters; ++r) {
    ASSERT_TRUE(expected.AddDigest(WormDigest(1, r, true)).ok());
  }
  const UnalignedReport full = expected.AnalyzeUnaligned();
  EXPECT_TRUE(degraded == full) << "degraded " << degraded.ToString()
                                << "\n    full " << full.ToString();

  // The k-of-w tracker recorded the degraded epoch as a detection, not as
  // a clean epoch; the unplanted epochs stay quiet.
  EXPECT_FALSE(reports[0].unaligned.common_content_detected);
  EXPECT_FALSE(reports[3].unaligned.common_content_detected);
  EXPECT_EQ(ring.tracker().detections_in_window(), 1u);
  EXPECT_EQ(ring.tracker().gaps_seen(), 0u);
}

TEST(BackpressureTest, BlockPolicyAnalyzesEverythingAndCountsOverruns) {
  EpochRing ring(SmallRing(ShedPolicy::kBlock));
  OfferEpoch(&ring, 0);
  OfferEpoch(&ring, 1);
  OfferEpoch(&ring, 6);
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 7u);
  for (const DcsReport& report : reports) {
    EXPECT_FALSE(report.shed);
    EXPECT_FALSE(report.degraded_analysis);
  }
  // Advancing 0 -> 5 closed five heads in one offer: one within budget,
  // four blocked.
  EXPECT_EQ(ring.stats().blocked_advances, 4u);
  EXPECT_EQ(ring.stats().epochs_shed, 0u);
  EXPECT_EQ(ring.stats().epochs_analyzed, 7u);
  EXPECT_EQ(ring.tracker().gaps_seen(), 0u);
}

// A complete epoch is analyzed in full however overloaded the ring is: it
// closes on its last digest, or, when it waits behind an overdue head, as
// soon as that head is gone, without being charged to the budget.
TEST(BackpressureTest, CompleteEpochsAreAnalyzedAtFullFidelity) {
  for (const ShedPolicy policy :
       {ShedPolicy::kDropOldest, ShedPolicy::kDegrade}) {
    EpochRingOptions options = SmallRing(policy);
    options.ingest.expected_routers = kRouters;
    EpochRing ring(options);
    OfferEpoch(&ring, 0);  // Complete: closes on its last digest.
    ASSERT_EQ(ring.head_epoch(), 1u);
    for (std::uint32_t r = 0; r + 1 < kRouters; ++r) {
      ASSERT_TRUE(ring.Offer(NoiseDigest(1, r)).ok());  // One router short.
    }
    OfferEpoch(&ring, 2);  // Complete, but waits behind epoch 1.
    ASSERT_EQ(ring.head_epoch(), 1u);
    // Jumping to epoch 9 closes the short epoch 1 (within budget), the
    // complete epoch 2 (at full fidelity, outside the budget) and the
    // silent epochs 3..7 (over budget: shed or degraded).
    OfferEpoch(&ring, 9);
    ring.Drain();
    const std::vector<DcsReport> reports = ring.TakeReports();
    ASSERT_EQ(reports.size(), 10u) << ShedPolicyName(policy);
    for (const std::uint64_t e : {0u, 1u, 2u, 9u}) {
      EXPECT_FALSE(reports[e].shed) << ShedPolicyName(policy) << " " << e;
      EXPECT_FALSE(reports[e].degraded_analysis)
          << ShedPolicyName(policy) << " " << e;
    }
    for (std::uint64_t e = 3; e <= 7; ++e) {
      EXPECT_TRUE(reports[e].shed || reports[e].degraded_analysis)
          << ShedPolicyName(policy) << " " << e;
    }
    // Epoch 8 is silent, so the complete epoch 9 waits for Drain().
    EXPECT_EQ(reports[8].epoch_id, 8u);
    EXPECT_EQ(reports[9].digests_accepted, kRouters);
    EXPECT_EQ(ring.stats().complete_closes, 2u);
    EXPECT_EQ(ring.stats().advance_closes, 6u);
    EXPECT_EQ(ring.stats().epochs_shed + ring.stats().epochs_degraded, 5u);

    // The complete epoch's report is the one-shot monitor's under the
    // ring's full options.
    IngestOptions pinned = options.ingest;
    pinned.lock_epoch_to_first = false;
    pinned.expected_epoch = 2;
    pinned.max_epoch_skew = 0;
    DcsMonitor expected(options.aligned, options.unaligned,
                        AnalysisContext{}, pinned);
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      ASSERT_TRUE(expected.AddDigest(NoiseDigest(2, r)).ok());
    }
    EXPECT_EQ(reports[2].aligned, expected.AnalyzeAligned())
        << ShedPolicyName(policy);
    EXPECT_EQ(reports[2].unaligned, expected.AnalyzeUnaligned())
        << ShedPolicyName(policy);
  }
}

TEST(BackpressureTest, ShedAndIngestMetricsCountDrops) {
  MetricsRegistry::Global().set_enabled(true);
  MetricsRegistry::Global().ResetValues();

  EpochRing ring(SmallRing(ShedPolicy::kDropOldest));
  OfferEpoch(&ring, 0);
  // A replayed digest: the slot monitor rejects it and ingest.* counts it.
  EXPECT_FALSE(ring.Offer(NoiseDigest(0, 0)).ok());
  OfferEpoch(&ring, 1);
  OfferEpoch(&ring, 9);  // Sheds epochs 1..7.
  // A digest for a closed epoch: stale, refused at the ring itself.
  EXPECT_FALSE(ring.Offer(NoiseDigest(2, 0)).ok());
  ring.Drain();

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  MetricsRegistry::Global().set_enabled(false);

  const auto counter = [&](const char* name) -> std::uint64_t {
    const MetricsSnapshot::Entry* entry = snapshot.Find(name);
    return entry == nullptr ? 0 : entry->counter_value;
  };
  EXPECT_EQ(counter("soak.shed_epochs"), 7u);
  EXPECT_EQ(counter("soak.analyzed_epochs"), 3u);
  EXPECT_EQ(counter("soak.stale_digests"), 1u);
  EXPECT_EQ(counter("soak.digests_offered"), 3 * kRouters + 2u);
  EXPECT_EQ(counter("soak.digests_accepted"), 3 * kRouters);
  EXPECT_EQ(counter("soak.digests_rejected"), 1u);
  EXPECT_EQ(counter("ingest.rejected.duplicate"), 1u);
  EXPECT_EQ(counter("ingest.accepted"), 3 * kRouters);
  EXPECT_EQ(counter("epoch.gaps"), 7u);
  // Shed epochs never reach the analyzers.
  EXPECT_EQ(counter("monitor.epochs_analyzed.aligned"), 10u - 7u);
}

}  // namespace
}  // namespace dcs
