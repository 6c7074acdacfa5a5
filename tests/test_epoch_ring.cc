// Differential soak suite for the EpochRing (docs/STREAMING.md): a long
// epoch stream through the ring must be bit-identical to one-shot
// DcsMonitor analysis of the same digests — at thread counts 1, 2, and 8,
// with incremental weights hot-starting the screen, with shedding on and
// off, with epochs closing as soon as they are complete, and with a
// FaultPlan quarantining a router mid-stream. The running column counts are
// also cross-checked against the BitMatrix::ColumnWeights oracle every
// epoch.

#include "dcs/epoch_ring.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "analysis/incremental_weights.h"
#include "testing/fault_injector.h"

namespace dcs {
namespace {

constexpr std::uint32_t kRouters = 16;
constexpr std::size_t kBits = 1024;
constexpr std::size_t kPatternRouters = 12;
constexpr std::size_t kPatternCols = 20;

// Deterministic per-(epoch, router) Bernoulli(1/2) bitmap — the paper's
// aligned noise model — with a 12x20 all-1 pattern planted on every fourth
// epoch across routers 0..11.
Digest SynthesizeDigest(std::uint64_t epoch, std::uint32_t router) {
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kAligned;
  digest.packets_covered = 100;
  digest.raw_bytes_covered = 100000;
  BitVector row(kBits);
  Rng rng(epoch * 1000003 + router * 7919 + 1);
  for (std::size_t i = 0; i < kBits; ++i) {
    if (rng.Bernoulli(0.5)) row.Set(i);
  }
  if (epoch % 4 == 0 && router < kPatternRouters) {
    for (std::size_t c = 0; c < kPatternCols; ++c) row.Set(37 + 11 * c);
  }
  digest.rows.push_back(std::move(row));
  return digest;
}

AlignedPipelineOptions RingAligned(bool incremental) {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 96;
  aligned.detector.first_iteration_hopefuls = 96;
  aligned.detector.hopefuls = 48;
  aligned.incremental_weights = incremental;
  return aligned;
}

EpochRingOptions RingOptions(ShedPolicy policy) {
  EpochRingOptions options;
  options.capacity = 4;
  options.policy = policy;
  options.aligned = RingAligned(/*incremental=*/true);
  return options;
}

// A router's unaligned digest: 4 groups x 2 arrays of 256-bit rows at
// about 1/4 fill.
Digest SynthesizeUnalignedDigest(std::uint64_t epoch, std::uint32_t router) {
  Digest digest;
  digest.router_id = router;
  digest.epoch_id = epoch;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = 4;
  digest.arrays_per_group = 2;
  Rng rng(epoch * 900001 + router * 104729 + 5);
  for (std::size_t r = 0; r < 8; ++r) {
    BitVector row(256);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = rng.Next() & rng.Next();
    }
    digest.rows.push_back(std::move(row));
  }
  return digest;
}

// One-shot reference: a fresh monitor per epoch, cold weight screen, same
// pinned ingest the ring applies to its slots, fed `digests` (by default
// every router's aligned digest of the epoch).
DcsReport OneShotReport(std::uint64_t epoch, const AnalysisContext& context,
                        std::uint32_t expected_routers = 0,
                        std::vector<Digest> digests = {}) {
  IngestOptions pinned;
  pinned.expected_routers = expected_routers;
  pinned.lock_epoch_to_first = false;
  pinned.expected_epoch = epoch;
  pinned.max_epoch_skew = 0;
  DcsMonitor monitor(RingAligned(/*incremental=*/false),
                     UnalignedPipelineOptions{}, context, pinned);
  if (digests.empty()) {
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      digests.push_back(SynthesizeDigest(epoch, r));
    }
  }
  for (Digest& digest : digests) {
    EXPECT_TRUE(monitor.AddDigest(std::move(digest)).ok());
  }
  DcsReport report;
  report.epoch_id = epoch;
  report.aligned = monitor.AnalyzeAligned();
  report.unaligned = monitor.AnalyzeUnaligned();
  report.digests_accepted = monitor.ingest_stats().accepted;
  report.digests_rejected = monitor.ingest_stats().rejected_total();
  report.observed_routers = monitor.ingest_stats().observed_routers;
  return report;
}

TEST(IncrementalWeightsTest, MatchesColumnWeightsOracle) {
  Rng rng(99);
  IncrementalColumnWeights incremental;
  BitMatrix matrix;
  for (std::size_t r = 0; r < 32; ++r) {
    BitVector row(517);  // Deliberately not word-aligned.
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (rng.Bernoulli(0.37)) row.Set(i);
    }
    matrix.AppendRow(row);
    incremental.AddRow(row);
    ASSERT_EQ(incremental.weights(), matrix.ColumnWeights())
        << "after row " << r;
  }
  incremental.Reset();
  EXPECT_EQ(incremental.num_rows(), 0u);
  EXPECT_TRUE(incremental.weights().empty());
}

TEST(IncrementalWeightsTest, RejectsNothingButTracksEmptyWidth) {
  IncrementalColumnWeights incremental;
  BitVector empty(0);
  incremental.AddRow(empty);
  EXPECT_EQ(incremental.num_rows(), 1u);
  EXPECT_EQ(incremental.num_cols(), 0u);
}

// The tentpole property: N epochs through the ring, at several thread
// counts, produce reports bit-identical to one-shot cold-screen analysis;
// the slot's incremental weights equal the oracle at every epoch.
TEST(EpochRingDifferentialTest, BitIdenticalToOneShotAcrossThreadCounts) {
  constexpr std::uint64_t kEpochs = 24;

  // Serial reference reports, cold screen.
  std::vector<DcsReport> reference;
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    reference.push_back(OneShotReport(e, AnalysisContext{}));
  }
  std::size_t detections = 0;
  for (const DcsReport& r : reference) {
    detections += r.aligned.common_content_detected;
  }
  // The planted pattern must actually fire, or the differential is vacuous.
  ASSERT_GE(detections, kEpochs / 4);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    AnalysisContext context{&pool};
    EpochRing ring(RingOptions(ShedPolicy::kBlock), context);

    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      for (std::uint32_t r = 0; r < kRouters; ++r) {
        ASSERT_TRUE(ring.Offer(SynthesizeDigest(e, r)).ok());
      }
      // Oracle cross-check while the epoch is still in flight: the slot's
      // running counts must equal a freshly stacked matrix's weights.
      const DcsMonitor* slot = ring.monitor_for_epoch(e);
      ASSERT_NE(slot, nullptr);
      BitMatrix oracle;
      for (std::uint32_t r = 0; r < kRouters; ++r) {
        oracle.AppendRow(SynthesizeDigest(e, r).rows.front());
      }
      ASSERT_EQ(slot->incremental_column_weights().weights(),
                oracle.ColumnWeights())
          << "epoch " << e << " threads " << threads;
    }
    ring.Drain();
    const std::vector<DcsReport> reports = ring.TakeReports();
    ASSERT_EQ(reports.size(), kEpochs);
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      EXPECT_EQ(reports[e], reference[e])
          << "epoch " << e << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(ring.stats().epochs_analyzed, kEpochs);
    EXPECT_EQ(ring.stats().epochs_shed, 0u);
    EXPECT_EQ(ring.tracker().gaps_seen(), 0u);
  }
}

// Shedding on: epochs arriving in strides force drop-oldest closes. The
// epochs that are analyzed must still match one-shot analysis exactly.
TEST(EpochRingDifferentialTest, AnalyzedEpochsMatchOneShotUnderShedding) {
  EpochRingOptions options = RingOptions(ShedPolicy::kDropOldest);
  options.capacity = 2;
  options.analysis_budget_per_offer = 1;
  EpochRing ring(options);

  // Epoch stride 3 with capacity 2: each advance closes 3 heads — one
  // within budget (analyzed), two over (shed).
  constexpr std::uint64_t kStride = 3;
  constexpr std::uint64_t kLast = 27;
  for (std::uint64_t e = 0; e <= kLast; e += kStride) {
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      ASSERT_TRUE(ring.Offer(SynthesizeDigest(e, r)).ok());
    }
  }
  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), kLast + 1);
  std::size_t shed = 0;
  for (std::uint64_t e = 0; e <= kLast; ++e) {
    EXPECT_EQ(reports[e].epoch_id, e) << "report stream not contiguous";
    if (reports[e].shed) {
      ++shed;
      EXPECT_FALSE(reports[e].aligned.common_content_detected);
      continue;
    }
    if (e % kStride == 0) {
      // Offered epochs that survived shedding: full differential check.
      EXPECT_EQ(reports[e], OneShotReport(e, AnalysisContext{}))
          << "epoch " << e;
    } else {
      EXPECT_EQ(reports[e].digests_accepted, 0u);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(ring.stats().epochs_shed, shed);
  EXPECT_EQ(ring.tracker().gaps_seen(), shed);
}

// With the fleet size known, each epoch closes on its last digest. Digests
// arrive shuffled across the whole window (every block of `capacity`
// epochs is offered in one random order), so epochs complete out of order
// and wait for their heads; the reports still equal one-shot analysis.
TEST(EpochRingDifferentialTest, CompleteClosesMatchOneShotUnderShuffle) {
  constexpr std::uint64_t kEpochs = 16;
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.ingest.expected_routers = kRouters;
  EpochRing ring(options);
  Rng rng(17);
  for (std::uint64_t first = 0; first < kEpochs; first += options.capacity) {
    std::vector<Digest> block;
    for (std::uint64_t e = first; e < first + options.capacity; ++e) {
      for (std::uint32_t r = 0; r < kRouters; ++r) {
        block.push_back(SynthesizeDigest(e, r));
      }
    }
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.UniformInt(i)]);
    }
    if (first == 0) {
      // The stream's first digest seeds the head, so it must be epoch 0's.
      std::iter_swap(block.begin(),
                     std::find_if(block.begin(), block.end(),
                                  [](const Digest& d) {
                                    return d.epoch_id == 0;
                                  }));
    }
    for (Digest& digest : block) {
      ASSERT_TRUE(ring.Offer(std::move(digest)).ok());
    }
    // The block's last digest completed its last epoch, so every epoch so
    // far has closed without a window advance.
    EXPECT_EQ(ring.head_epoch(), first + options.capacity);
    EXPECT_EQ(ring.epochs_in_flight(), 0u);
  }
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(reports[e], OneShotReport(e, AnalysisContext{}, kRouters))
        << "epoch " << e;
  }
  EXPECT_EQ(ring.stats().complete_closes, kEpochs);
  EXPECT_EQ(ring.stats().advance_closes, 0u);
  EXPECT_EQ(ring.stats().stale_digests, 0u);
}

TEST(EpochRingTest, LateDuplicateAfterCompleteCloseIsStale) {
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.ingest.expected_routers = kRouters;
  EpochRing ring(options);
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    ASSERT_TRUE(ring.Offer(SynthesizeDigest(0, r)).ok());
  }
  ASSERT_EQ(ring.head_epoch(), 1u);
  const Status late = ring.Offer(SynthesizeDigest(0, 3));
  EXPECT_EQ(late.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(ring.stats().stale_digests, 1u);
  EXPECT_EQ(ring.stats().digests_rejected, 0u);
  EXPECT_EQ(ring.epochs_in_flight(), 0u);
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].digests_accepted, kRouters);
  EXPECT_EQ(reports[0].digests_rejected, 0u);
}

// An epoch one router short is not complete: it closes only when a digest
// beyond the window arrives, then the complete epochs behind it close too,
// and its report is one-shot analysis of the routers that did report.
TEST(EpochRingTest, ShortEpochClosesOnAdvanceWithItsReportUnchanged) {
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.ingest.expected_routers = kRouters;
  EpochRing ring(options);
  std::vector<Digest> short_epoch;
  for (std::uint32_t r = 0; r + 1 < kRouters; ++r) {
    short_epoch.push_back(SynthesizeDigest(0, r));
    ASSERT_TRUE(ring.Offer(SynthesizeDigest(0, r)).ok());
  }
  for (std::uint64_t e = 1; e < options.capacity; ++e) {
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      ASSERT_TRUE(ring.Offer(SynthesizeDigest(e, r)).ok());
    }
  }
  EXPECT_EQ(ring.head_epoch(), 0u);
  EXPECT_TRUE(ring.TakeReports().empty());

  ASSERT_TRUE(ring.Offer(SynthesizeDigest(options.capacity, 0)).ok());
  EXPECT_EQ(ring.head_epoch(), options.capacity);
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), options.capacity);
  EXPECT_EQ(reports[0],
            OneShotReport(0, AnalysisContext{}, kRouters, short_epoch));
  EXPECT_EQ(reports[0].digests_accepted, kRouters - 1);
  for (std::uint64_t e = 1; e < options.capacity; ++e) {
    EXPECT_EQ(reports[e], OneShotReport(e, AnalysisContext{}, kRouters))
        << "epoch " << e;
  }
  EXPECT_EQ(ring.stats().advance_closes, 1u);
  EXPECT_EQ(ring.stats().complete_closes, options.capacity - 1);
  EXPECT_EQ(ring.stats().blocked_advances, 0u);
}

// A fleet shipping both kinds, every aligned digest of an epoch before any
// unaligned one. Until the first unaligned digest the ring knows only the
// aligned kind, so epoch 0 closes on its aligned digests and its unaligned
// ones are stale; from epoch 1 on each epoch waits for both kinds.
TEST(EpochRingTest, MixedKindFleetLosesNoDigestAfterItsFirstEpoch) {
  constexpr std::uint64_t kEpochs = 6;
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.ingest.expected_routers = kRouters;
  EpochRing ring(options);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      ASSERT_TRUE(ring.Offer(SynthesizeDigest(e, r)).ok());
    }
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      const Status status = ring.Offer(SynthesizeUnalignedDigest(e, r));
      EXPECT_EQ(status.ok(), e > 0) << "epoch " << e << " router " << r;
    }
  }
  EXPECT_EQ(ring.stats().stale_digests, kRouters);
  EXPECT_EQ(ring.stats().digests_accepted, (2 * kEpochs - 1) * kRouters);
  EXPECT_EQ(ring.stats().complete_closes, kEpochs);
  EXPECT_EQ(ring.epochs_in_flight(), 0u);
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), kEpochs);
  EXPECT_EQ(reports[0], OneShotReport(0, AnalysisContext{}, kRouters));
  for (std::uint64_t e = 1; e < kEpochs; ++e) {
    std::vector<Digest> both;
    for (std::uint32_t r = 0; r < kRouters; ++r) {
      both.push_back(SynthesizeDigest(e, r));
      both.push_back(SynthesizeUnalignedDigest(e, r));
    }
    EXPECT_EQ(reports[e].digests_accepted, 2 * kRouters) << "epoch " << e;
    EXPECT_EQ(reports[e],
              OneShotReport(e, AnalysisContext{}, kRouters, std::move(both)))
        << "epoch " << e;
  }
}

TEST(EpochRingTest, SilentEpochsGetContiguousEmptyReports) {
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.capacity = 8;
  EpochRing ring(options);
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    ASSERT_TRUE(ring.Offer(SynthesizeDigest(0, r)).ok());
    ASSERT_TRUE(ring.Offer(SynthesizeDigest(5, r)).ok());
  }
  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 6u);
  for (std::uint64_t e = 0; e < 6; ++e) {
    EXPECT_EQ(reports[e].epoch_id, e);
    EXPECT_FALSE(reports[e].shed);
    EXPECT_EQ(reports[e].digests_accepted, e == 0 || e == 5 ? kRouters : 0u);
  }
}

TEST(EpochRingTest, StaleDigestIsRefusedWithoutTouchingSlots) {
  EpochRing ring(RingOptions(ShedPolicy::kBlock));
  ASSERT_TRUE(ring.Offer(SynthesizeDigest(10, 0)).ok());
  const Status stale = ring.Offer(SynthesizeDigest(3, 1));
  EXPECT_EQ(stale.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(ring.stats().stale_digests, 1u);
  EXPECT_EQ(ring.epochs_in_flight(), 1u);
}

TEST(EpochRingTest, FirstEpochNearTheTopOfTheRangeClosesOnce) {
  // head + capacity wraps when the first epoch is within capacity of the
  // largest epoch id; the window must still hold just that one epoch.
  constexpr std::uint64_t kEpoch =
      std::numeric_limits<std::uint64_t>::max() - 1;
  EpochRing ring(RingOptions(ShedPolicy::kBlock));
  ASSERT_TRUE(ring.Offer(SynthesizeDigest(kEpoch, 0)).ok());
  EXPECT_EQ(ring.head_epoch(), kEpoch);
  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].epoch_id, kEpoch);
  EXPECT_EQ(reports[0].digests_accepted, 1u);
}

TEST(EpochRingTest, SlotRecyclingReusesMonitors) {
  EpochRingOptions options = RingOptions(ShedPolicy::kBlock);
  options.capacity = 2;
  EpochRing ring(options);
  for (std::uint64_t e = 0; e < 10; ++e) {
    for (std::uint32_t r = 0; r < 4; ++r) {
      ASSERT_TRUE(ring.Offer(SynthesizeDigest(e, r)).ok());
    }
  }
  EXPECT_EQ(ring.stats().max_in_flight, 2u);
  EXPECT_EQ(ring.head_epoch(), 8u);
  ring.Drain();
  EXPECT_EQ(ring.epochs_in_flight(), 0u);
  EXPECT_EQ(ring.TakeReports().size(), 10u);
}

// FaultPlan-seeded variant: mid-stream, one router replays its digest
// (quarantine via duplicate) and another ships a resealed lying-shape
// header (quarantine via Corruption). Both quarantines must stay confined
// to their epoch's slot, and the incremental weights of every epoch —
// poisoned or clean — must keep matching one-shot analysis of the same
// delivered messages (a poisoned count would flip the screen and diverge
// the report).
TEST(EpochRingDifferentialTest, QuarantineMidStreamDoesNotPoisonLaterEpochs) {
  constexpr std::uint64_t kEpochs = 12;
  constexpr std::uint32_t kReplayRouter = 5;
  constexpr std::uint32_t kLiarRouter = 9;

  // The replayer's fate comes from a materialized FaultPlan, so the
  // scenario replays bit-for-bit from the seed alone.
  FaultPlan plan;
  plan.seed = 7;
  plan.faults.resize(kRouters);  // Indexed by router id, default kNone.
  for (std::uint32_t r = 0; r < kRouters; ++r) plan.faults[r].router_id = r;
  plan.faults[kReplayRouter].kind = FaultKind::kDuplicate;
  plan.faults[kReplayRouter].mutation_seed = 500;
  const FaultInjector injector(plan);

  EpochRing ring(RingOptions(ShedPolicy::kBlock));
  std::vector<DcsReport> reference;
  bool saw_quarantine = false;

  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    // Epochs 4..7 are the faulty stretch.
    const bool faulty_epoch = e >= 4 && e < 8;

    IngestOptions pinned;
    pinned.lock_epoch_to_first = false;
    pinned.expected_epoch = e;
    pinned.max_epoch_skew = 0;
    DcsMonitor one_shot(RingAligned(/*incremental=*/false),
                        UnalignedPipelineOptions{}, AnalysisContext{},
                        pinned);

    for (std::uint32_t r = 0; r < kRouters; ++r) {
      std::vector<std::vector<std::uint8_t>> messages;
      std::vector<std::uint8_t> bytes = SynthesizeDigest(e, r).Encode();
      if (faulty_epoch && r == kReplayRouter) {
        messages = injector.Apply(r, bytes);  // Two copies: a replay.
      } else if (faulty_epoch && r == kLiarRouter) {
        // Claim num_groups = 4 on an aligned digest carrying one row, then
        // reseal so only structural validation can catch the lie.
        bytes[DigestWireLayout::kNumGroupsOffset] = 4;
        Digest::ResealChecksum(&bytes);
        messages = {bytes};
      } else {
        messages = {bytes};
      }
      for (const std::vector<std::uint8_t>& message : messages) {
        Digest delivered;
        if (!Digest::Decode(message, &delivered).ok()) continue;
        const Status ring_status = ring.Offer(delivered);
        const Status one_shot_status = one_shot.AddDigest(delivered);
        EXPECT_EQ(ring_status.code(), one_shot_status.code())
            << "epoch " << e << " router " << r;
      }
    }
    if (one_shot.IsQuarantined(kReplayRouter)) {
      saw_quarantine = true;
      EXPECT_TRUE(one_shot.IsQuarantined(kLiarRouter));
    }

    DcsReport expected;
    expected.epoch_id = e;
    expected.aligned = one_shot.AnalyzeAligned();
    expected.unaligned = one_shot.AnalyzeUnaligned();
    expected.digests_accepted = one_shot.ingest_stats().accepted;
    expected.digests_rejected = one_shot.ingest_stats().rejected_total();
    expected.observed_routers = one_shot.ingest_stats().observed_routers;
    reference.push_back(expected);
  }
  // The faults must actually have bitten, or this test proves nothing.
  ASSERT_TRUE(saw_quarantine);

  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  ASSERT_EQ(reports.size(), kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(reports[e], reference[e]) << "epoch " << e;
  }
  // The replayed router's first (accepted) copy stays in the analysis, the
  // liar's row never lands: 15 of 16 routers contribute in faulty epochs.
  EXPECT_EQ(reports[5].digests_accepted, kRouters - 1);
  EXPECT_EQ(reports[5].observed_routers, kRouters - 1);
  EXPECT_GE(reports[5].digests_rejected, 2u);
  // After the faulty stretch both routers are accepted again: the
  // quarantines died with their epoch's slot.
  EXPECT_EQ(reports[kEpochs - 1].digests_accepted, kRouters);
  EXPECT_EQ(reports[kEpochs - 1].observed_routers, kRouters);
}

}  // namespace
}  // namespace dcs
