#ifndef DCS_DCS_EPOCH_RING_H_
#define DCS_DCS_EPOCH_RING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "analysis/analysis_context.h"
#include "dcs/epoch_tracker.h"
#include "dcs/ingest.h"
#include "dcs/monitor.h"
#include "dcs/options.h"
#include "dcs/report.h"
#include "sketch/digest.h"

namespace dcs {

/// What the ring does with epochs it cannot afford to analyze in time
/// (docs/STREAMING.md has the full policy matrix).
enum class ShedPolicy {
  /// Analyze every epoch anyway, however far behind — models blocking the
  /// producer. Never loses evidence; latency is unbounded.
  kBlock,
  /// Shed overdue epochs unanalyzed; each becomes an EpochTracker gap.
  /// Bounded latency; loses the shed epochs' evidence and the k-of-w
  /// window ages at wall-epoch rate through the gaps.
  kDropOldest,
  /// Analyze overdue epochs with a narrower aligned screen; its thresholds
  /// recalibrate via EpochCalibration so each report states the evidence
  /// bar it was held to. The unaligned half runs at full fidelity.
  /// Bounded-ish latency; reduced aligned sensitivity.
  kDegrade,
};

const char* ShedPolicyName(ShedPolicy policy);

/// Configuration of the continuous-operation ring.
struct EpochRingOptions {
  /// In-flight epochs the ring holds open at once (window [head, head+cap)).
  std::size_t capacity = 8;
  /// What to do with epochs forced out faster than the budget allows.
  ShedPolicy policy = ShedPolicy::kBlock;
  /// Overdue heads (short of a router, see EpochRing) the ring can afford
  /// to analyze at full fidelity during a single Offer() that advances the
  /// window. Advancing further than this in one step is the overload
  /// signal that triggers `policy` for the excess epochs. Complete epochs
  /// and Drain() ignore the budget.
  std::size_t analysis_budget_per_offer = 1;

  /// Analysis tuning shared by every slot.
  AlignedPipelineOptions aligned;
  UnalignedPipelineOptions unaligned;
  /// Ingest hardening base. Epoch pinning (expected_epoch, skew 0, no
  /// lock-to-first) is applied per slot on top of this; routing digests to
  /// slots is the ring's job, so per-slot monitors never see skew. A
  /// nonzero `ingest.expected_routers` also closes each epoch as soon as
  /// it is complete (see EpochRing).
  IngestOptions ingest;
  /// Cross-epoch k-of-w smoothing fed by every analyzed epoch and every
  /// shed gap.
  EpochTrackerOptions tracker;

  /// Degrade-mode tuning (kDegrade only): the cheapened analysis screens
  /// n' / divisor aligned columns. The unaligned half of a degraded epoch
  /// runs at full fidelity.
  std::size_t degraded_n_prime_divisor = 4;
};

/// One epoch's complete outcome, in epoch order.
struct DcsReport {
  std::uint64_t epoch_id = 0;
  /// True when the epoch was shed unanalyzed (kDropOldest overload); the
  /// aligned/unaligned members are then default-constructed.
  bool shed = false;
  /// True when the epoch's aligned half was analyzed with the degraded
  /// (narrower-screen) options.
  bool degraded_analysis = false;
  AlignedReport aligned;
  UnalignedReport unaligned;
  /// Ingest outcome summary for the epoch's slot.
  std::uint64_t digests_accepted = 0;
  std::uint64_t digests_rejected = 0;
  std::uint32_t observed_routers = 0;

  friend bool operator==(const DcsReport&, const DcsReport&) = default;
};

/// Ring lifetime counters (mirrored into soak.* metrics).
struct RingStats {
  std::uint64_t digests_offered = 0;
  std::uint64_t digests_accepted = 0;
  std::uint64_t digests_rejected = 0;  ///< Slot-level (shape, dup, ...).
  std::uint64_t stale_digests = 0;     ///< Behind the head — slot long gone.
  std::uint64_t complete_closes = 0;   ///< Heads closed once complete.
  std::uint64_t advance_closes = 0;    ///< Heads forced out by the window.
  std::uint64_t epochs_analyzed = 0;   ///< Full-fidelity analyses.
  std::uint64_t epochs_shed = 0;       ///< kDropOldest gaps.
  std::uint64_t epochs_degraded = 0;   ///< kDegrade cheap analyses.
  std::uint64_t blocked_advances = 0;  ///< kBlock over-budget analyses.
  std::uint64_t max_in_flight = 0;     ///< High-water open slot count.
};

/// \brief Bounded window of in-flight epochs for sustained operation.
///
/// The paper's monitor runs every second, forever (Section V-B.1); one
/// DcsMonitor handles one epoch at a time. The ring owns `capacity` monitor
/// slots and recycles them: digests are routed to the slot of their epoch,
/// and the head epoch is closed — analyzed (or shed, per ShedPolicy), its
/// DcsReport queued, its verdict recorded in the EpochTracker, and its slot
/// cleared for reuse. No allocation of fresh pipeline state per epoch,
/// bounded memory regardless of stream length. The slots share one pair of
/// unaligned λ tables.
///
/// Close rule: with `ingest.expected_routers` = N > 0, the head closes at
/// full fidelity during the Offer() that makes it complete — its slot has
/// accepted N digests of every digest kind offered to the ring so far —
/// and any complete epochs behind it close with it, in epoch order. So a
/// report leaves one analysis after the epoch's last digest. An epoch short
/// of a router (or any epoch, when N = 0) closes when a digest beyond the
/// window arrives; only those overdue closes are charged to
/// `analysis_budget_per_offer` and the shed policy. The kinds are learned
/// from every offered digest, stale ones included, so a fleet shipping
/// both kinds waits for both from its second epoch on.
///
/// Determinism: closing an epoch runs the same DcsMonitor analysis a
/// one-shot monitor would run on the same accepted digests, on the same
/// AnalysisContext, whose pool only the unaligned λ calibration and pair
/// scan use; with incremental weights on, the hot-started screen is
/// bit-identical to the cold one (see ScreenHeaviestColumns). So the
/// ring's reports are bit-identical to one-shot analysis at any thread
/// count — the property tests/test_epoch_ring.cc locks down. The close
/// rule reads only the offered stream, so it keeps that property.
///
/// Out-of-order tolerance: digests for any epoch inside [head, head+cap)
/// are accepted in any arrival order. A digest behind the head is refused
/// (FailedPrecondition, stats().stale_digests) — its epoch already closed,
/// complete or overdue.
///
/// Threading: the offer/close path (Offer, Drain, stats, tracker,
/// monitor_for_epoch) is confined to one thread — the slot monitors and
/// the tracker are not lock-protected, and serial offers are what make the
/// report stream deterministic. The one cross-thread surface is the closed
/// report queue: CloseHead() appends and TakeReports() drains under
/// `reports_mu_`, so an exporter thread may harvest reports while the
/// serve thread keeps offering.
class EpochRing {
 public:
  explicit EpochRing(const EpochRingOptions& options);
  EpochRing(const EpochRingOptions& options, const AnalysisContext& context);

  /// Routes one digest to its epoch's slot, advancing the window first if
  /// the digest's epoch lies beyond it (closing overdue heads per the shed
  /// policy), then closes the heads the digest made complete. Returns the
  /// slot monitor's verdict; stale digests fail with
  /// FailedPrecondition without touching any slot. By value, like
  /// DcsMonitor::AddDigest: pass std::move(digest) to hand the rows over.
  Status Offer(Digest digest);

  /// Closes every still-open epoch in order (full-fidelity analysis —
  /// end-of-stream, so the shed policy does not apply). Call before
  /// TakeReports() at shutdown.
  void Drain();

  /// Removes and returns the reports of every epoch closed so far, in
  /// epoch order. Safe from any thread (the queue is mutex-guarded); the
  /// rest of the ring is confined to the offering thread.
  std::vector<DcsReport> TakeReports() DCS_EXCLUDES(reports_mu_);

  /// Offer-thread only, like everything below: the counters are updated
  /// without atomics on the offer/close path.
  const RingStats& stats() const { return stats_; }
  const EpochTracker& tracker() const { return tracker_; }
  const EpochRingOptions& options() const { return options_; }

  /// Oldest epoch still open; meaningless before the first Offer().
  std::uint64_t head_epoch() const { return head_; }
  bool started() const { return started_; }
  /// Slots currently holding an open epoch.
  std::size_t epochs_in_flight() const;

  /// The live slot monitor of an open epoch, or nullptr when that epoch is
  /// not in flight. Test hook: lets the differential suite cross-check the
  /// slot's incremental weights against the BitMatrix oracle mid-stream.
  const DcsMonitor* monitor_for_epoch(std::uint64_t epoch) const;

 private:
  struct Slot {
    std::unique_ptr<DcsMonitor> monitor;
    std::uint64_t epoch = 0;
    bool open = false;
  };

  // Window advance: closes heads until `epoch` fits, charging the policy
  // for overdue heads beyond the per-offer budget.
  void AdvanceTo(std::uint64_t epoch);
  // Closes the head at full fidelity when it is complete (see the close
  // rule); true when it did.
  bool CloseHeadIfComplete();
  // Closes the current head (analyze / shed / degrade), queues its report,
  // records tracker verdict, frees the slot, bumps head_.
  enum class CloseMode { kAnalyze, kShed, kDegraded };
  void CloseHead(CloseMode mode);
  // The slot for `epoch`, opened (recycled + ingest pinned) on demand.
  Slot& OpenSlot(std::uint64_t epoch);

  AlignedPipelineOptions DegradedAligned() const;

  EpochRingOptions options_;
  AnalysisContext context_;
  std::vector<Slot> slots_;
  EpochTracker tracker_;
  RingStats stats_;
  std::shared_ptr<UnalignedLambdaTables> lambda_tables_ =
      std::make_shared<UnalignedLambdaTables>();
  // Digest kinds offered so far: the kinds a complete epoch must hold.
  bool offered_aligned_ = false;
  bool offered_unaligned_ = false;
  /// Guards only the closed-report queue — the handoff point between the
  /// offering thread (CloseHead appends) and whoever drains TakeReports().
  mutable Mutex reports_mu_{"EpochRing.reports_mu"};
  std::vector<DcsReport> reports_ DCS_GUARDED_BY(reports_mu_);
  std::uint64_t head_ = 0;
  bool started_ = false;
};

}  // namespace dcs

#endif  // DCS_DCS_EPOCH_RING_H_
