#include "dcs/epoch_ring.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kBlock:
      return "block";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kDegrade:
      return "degrade";
  }
  return "unknown";
}

EpochRing::EpochRing(const EpochRingOptions& options)
    : EpochRing(options, AnalysisContext{}) {}

EpochRing::EpochRing(const EpochRingOptions& options,
                     const AnalysisContext& context)
    : options_(options),
      context_(context),
      slots_(options.capacity),
      tracker_(options.tracker) {
  DCS_CHECK(options_.capacity >= 1);
  DCS_CHECK(options_.analysis_budget_per_offer >= 1);
  DCS_CHECK(options_.degraded_n_prime_divisor >= 1);
}

std::size_t EpochRing::epochs_in_flight() const {
  std::size_t open = 0;
  for (const Slot& slot : slots_) open += slot.open;
  return open;
}

const DcsMonitor* EpochRing::monitor_for_epoch(std::uint64_t epoch) const {
  const Slot& slot = slots_[epoch % options_.capacity];
  if (slot.open && slot.epoch == epoch) return slot.monitor.get();
  return nullptr;
}

AlignedPipelineOptions EpochRing::DegradedAligned() const {
  AlignedPipelineOptions degraded = options_.aligned;
  // Narrow the screen: the dominant aligned cost is the k-product search
  // over n' columns. The NNO gate and EpochCalibration recompute against
  // the narrower screen, so the report is honest about its evidence bar.
  degraded.n_prime =
      std::max<std::size_t>(1, degraded.n_prime /
                                   options_.degraded_n_prime_divisor);
  degraded.detector.first_iteration_hopefuls = std::min(
      degraded.detector.first_iteration_hopefuls, degraded.n_prime);
  return degraded;
}

EpochRing::Slot& EpochRing::OpenSlot(std::uint64_t epoch) {
  Slot& slot = slots_[epoch % options_.capacity];
  if (slot.open) {
    DCS_CHECK(slot.epoch == epoch)
        << "slot collision: epoch " << epoch << " maps onto open epoch "
        << slot.epoch;
    return slot;
  }
  // Pin the recycled monitor to exactly this epoch: the ring already routed
  // the digest by epoch id, so the slot must refuse anything else.
  IngestOptions pinned = options_.ingest;
  pinned.lock_epoch_to_first = false;
  pinned.expected_epoch = epoch;
  pinned.max_epoch_skew = 0;
  if (slot.monitor == nullptr) {
    slot.monitor = std::make_unique<DcsMonitor>(
        options_.aligned, options_.unaligned, context_, pinned);
    // Slots close one at a time on the offering thread, so one pair of
    // tables serves them all.
    slot.monitor->ShareLambdaTables(lambda_tables_);
  } else {
    slot.monitor->ClearEpoch();
    slot.monitor->set_ingest_options(pinned);
  }
  slot.epoch = epoch;
  slot.open = true;
  const std::size_t in_flight = epochs_in_flight();
  stats_.max_in_flight =
      std::max(stats_.max_in_flight,
               static_cast<std::uint64_t>(in_flight));
  ObsGauge("soak.epochs_in_flight").Set(static_cast<double>(in_flight));
  return slot;
}

void EpochRing::CloseHead(CloseMode mode) {
  ScopedStageTimer stage("ring_epoch");
  // Opening the slot even for an epoch that never saw a digest keeps the
  // report stream contiguous: silent epochs get an explicit empty verdict
  // instead of vanishing.
  Slot& slot = OpenSlot(head_);
  DcsMonitor& monitor = *slot.monitor;

  DcsReport report;
  report.epoch_id = head_;
  report.digests_accepted = monitor.ingest_stats().accepted;
  report.digests_rejected = monitor.ingest_stats().rejected_total();
  report.observed_routers = monitor.ingest_stats().observed_routers;

  switch (mode) {
    case CloseMode::kShed: {
      report.shed = true;
      ++stats_.epochs_shed;
      ObsCounter("soak.shed_epochs").Increment();
      // The epoch's evidence is lost; the k-of-w window must still age.
      tracker_.RecordGap();
      break;
    }
    case CloseMode::kDegraded: {
      report.degraded_analysis = true;
      ++stats_.epochs_degraded;
      ObsCounter("soak.degraded_epochs").Increment();
      monitor.set_aligned_options(DegradedAligned());
      report.aligned = monitor.AnalyzeAligned();
      monitor.set_aligned_options(options_.aligned);
      report.unaligned = monitor.AnalyzeUnaligned();
      break;
    }
    case CloseMode::kAnalyze: {
      ++stats_.epochs_analyzed;
      ObsCounter("soak.analyzed_epochs").Increment();
      report.aligned = monitor.AnalyzeAligned();
      report.unaligned = monitor.AnalyzeUnaligned();
      break;
    }
  }

  if (mode != CloseMode::kShed) {
    const bool detected = report.aligned.common_content_detected ||
                          report.unaligned.common_content_detected;
    std::vector<std::uint32_t> routers = report.aligned.routers;
    routers.insert(routers.end(), report.unaligned.routers.begin(),
                   report.unaligned.routers.end());
    std::sort(routers.begin(), routers.end());
    routers.erase(std::unique(routers.begin(), routers.end()),
                  routers.end());
    tracker_.RecordEpoch(detected, routers);
  }

  {
    MutexLock lock(&reports_mu_);
    reports_.push_back(std::move(report));
  }
  monitor.ClearEpoch();
  slot.open = false;
  ++head_;
  ObsGauge("soak.head_epoch").Set(static_cast<double>(head_));
}

bool EpochRing::CloseHeadIfComplete() {
  const std::uint32_t expected = options_.ingest.expected_routers;
  const DcsMonitor* monitor = monitor_for_epoch(head_);
  if (expected == 0 || monitor == nullptr) return false;
  if ((offered_aligned_ && monitor->num_aligned_digests() < expected) ||
      (offered_unaligned_ && monitor->num_unaligned_digests() < expected)) {
    return false;
  }
  ++stats_.complete_closes;
  ObsCounter("soak.complete_closes").Increment();
  CloseHead(CloseMode::kAnalyze);
  return true;
}

void EpochRing::AdvanceTo(std::uint64_t epoch) {
  std::size_t closed_this_offer = 0;
  // Offer has already refused epochs behind the head, so epoch - head_
  // cannot wrap; head_ + capacity can, when the window starts within
  // capacity of the largest epoch id.
  while (epoch - head_ >= options_.capacity) {
    // A complete epoch waiting behind an overdue one is not overdue itself.
    if (CloseHeadIfComplete()) continue;
    ++stats_.advance_closes;
    ObsCounter("soak.advance_closes").Increment();
    if (closed_this_offer < options_.analysis_budget_per_offer) {
      CloseHead(CloseMode::kAnalyze);
    } else {
      // Over budget: the stream is outrunning the analysis. The policy
      // decides what the overdue head costs us.
      switch (options_.policy) {
        case ShedPolicy::kBlock:
          ++stats_.blocked_advances;
          ObsCounter("soak.blocked_advances").Increment();
          CloseHead(CloseMode::kAnalyze);
          break;
        case ShedPolicy::kDropOldest:
          CloseHead(CloseMode::kShed);
          break;
        case ShedPolicy::kDegrade:
          CloseHead(CloseMode::kDegraded);
          break;
      }
    }
    ++closed_this_offer;
  }
}

Status EpochRing::Offer(Digest digest) {
  ++stats_.digests_offered;
  ObsCounter("soak.digests_offered").Increment();
  if (!started_) {
    started_ = true;
    head_ = digest.epoch_id;
  }
  // Learned before the stale check: a kind whose first digests arrive after
  // their epoch closed must still hold later epochs open.
  (digest.kind == DigestKind::kAligned ? offered_aligned_
                                       : offered_unaligned_) = true;
  if (digest.epoch_id < head_) {
    ++stats_.stale_digests;
    ObsCounter("soak.stale_digests").Increment();
    return Status::FailedPrecondition(
        "digest epoch is behind the ring head (epoch already closed)");
  }
  AdvanceTo(digest.epoch_id);
  Slot& slot = OpenSlot(digest.epoch_id);
  const Status status = slot.monitor->AddDigest(std::move(digest));
  if (status.ok()) {
    ++stats_.digests_accepted;
    ObsCounter("soak.digests_accepted").Increment();
  } else {
    ++stats_.digests_rejected;
    ObsCounter("soak.digests_rejected").Increment();
  }
  while (CloseHeadIfComplete()) {
  }
  return status;
}

void EpochRing::Drain() {
  // End of stream: no back-pressure to shed against, so every remaining
  // epoch — including silent ones between open slots — closes at full
  // fidelity, keeping the report stream contiguous through the window.
  while (epochs_in_flight() > 0) {
    CloseHead(CloseMode::kAnalyze);
  }
}

std::vector<DcsReport> EpochRing::TakeReports() {
  std::vector<DcsReport> out;
  MutexLock lock(&reports_mu_);
  out.swap(reports_);
  return out;
}

}  // namespace dcs
