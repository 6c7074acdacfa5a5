#ifndef DCS_DCS_MONITOR_H_
#define DCS_DCS_MONITOR_H_

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/bit_matrix.h"
#include "common/status.h"
#include "analysis/analysis_context.h"
#include "analysis/incremental_weights.h"
#include "analysis/lambda_table.h"
#include "dcs/ingest.h"
#include "dcs/options.h"
#include "dcs/report.h"
#include "sketch/digest.h"

namespace dcs {

/// The unaligned analysis's two λ tables (ER graph and core graph), kept
/// across epochs and rebuilt only when their (array bits, p*) key moves.
/// A table's cells depend only on that key, so monitors that never analyze
/// at the same time may share one pair (an EpochRing's slots do).
struct UnalignedLambdaTables {
  std::unique_ptr<const LambdaTable> er;
  std::unique_ptr<const LambdaTable> core;
};

/// \brief The central analysis module of the DCS architecture (Fig 2).
///
/// Routers ship Digests; the monitor stacks them into the per-epoch analysis
/// matrix and runs the appropriate detection pipeline:
///  * aligned: screen the heaviest n' columns, greedy k-product core search,
///    core scan across the remaining columns (Section III);
///  * unaligned: induce the group correlation graph through the lambda
///    table, run the Erdős–Rényi phase-transition test, then find the core
///    and expand it (Section IV).
///
/// One monitor instance handles one epoch at a time: add the epoch's
/// digests, call AnalyzeAligned() or AnalyzeUnaligned(), then ClearEpoch().
/// Analysis calls on one monitor must not run concurrently with each other
/// or with ingest: they read the running column counts (AlignedHotWeights)
/// and grow the lambda tables the monitor keeps across epochs.
class DcsMonitor {
 public:
  DcsMonitor(const AlignedPipelineOptions& aligned_options,
             const UnalignedPipelineOptions& unaligned_options);

  /// Same, with shared analysis resources. When the unaligned scan options
  /// carry no pool of their own, the context's pool runs the λ calibration
  /// and the pair scan (Section IV-D). The whole aligned engine, peeling
  /// and the survivor scan run serially on the calling thread. Must
  /// outlive the monitor. Detection output does not depend on the pool or
  /// its thread count.
  DcsMonitor(const AlignedPipelineOptions& aligned_options,
             const UnalignedPipelineOptions& unaligned_options,
             const AnalysisContext& context);

  /// Same, with hardened-ingestion configuration (docs/ROBUSTNESS.md).
  DcsMonitor(const AlignedPipelineOptions& aligned_options,
             const UnalignedPipelineOptions& unaligned_options,
             const AnalysisContext& context,
             const IngestOptions& ingest_options);

  /// Reconfigures ingestion. Must be called before the epoch's first
  /// digest (or right after ClearEpoch()).
  void set_ingest_options(const IngestOptions& options);
  const IngestOptions& ingest_options() const { return ingest_options_; }

  /// Swaps the aligned analysis tuning mid-life — the EpochRing's degrade
  /// shedding policy screens an overloaded epoch's aligned matrix with a
  /// narrower n', then restores. Ingested digests are untouched.
  /// Thresholds (EpochCalibration) are recomputed from the new options at
  /// the next analysis call, so a degraded analysis states the evidence bar
  /// it was actually held to.
  void set_aligned_options(const AlignedPipelineOptions& aligned_options);
  const AlignedPipelineOptions& aligned_options() const {
    return aligned_options_;
  }
  const UnalignedPipelineOptions& unaligned_options() const {
    return unaligned_options_;
  }

  /// Accepts one router's digest for the current epoch. Rejects, in order:
  /// digests with no rows (InvalidArgument); digests whose header shape
  /// fields disagree with their own rows (Corruption — a resealed lying
  /// header); messages from quarantined routers (FailedPrecondition);
  /// replays of a (kind, router) already accepted this epoch
  /// (InvalidArgument); epoch ids outside the configured skew window
  /// (FailedPrecondition); and digests whose shape disagrees with
  /// previously added ones (InvalidArgument). Semantic offences quarantine
  /// the sender when IngestOptions says so. Takes the digest by value: an
  /// accepted digest is moved into the epoch's buffer, so callers that are
  /// done with theirs pass std::move(digest) and no row is copied.
  Status AddDigest(Digest digest);

  /// Decodes an encoded digest (the wire form routers ship) and adds it.
  /// Decode failures are counted in ingest_stats() but never quarantine:
  /// the router id inside a corrupt message is unauthenticated.
  Status AddEncodedDigest(const std::vector<std::uint8_t>& bytes);

  /// What happened to every message offered this epoch.
  const EpochIngestStats& ingest_stats() const { return stats_; }

  /// True when `router_id` has been quarantined this epoch.
  bool IsQuarantined(std::uint32_t router_id) const {
    return quarantined_.count(router_id) > 0;
  }

  /// Thresholds recomputed for the routers that actually reported — what
  /// AnalyzeAligned() and AnalyzeUnaligned() stamp into
  /// report.calibration. Callable directly for
  /// operator dashboards.
  EpochCalibration AlignedCalibration() const;
  EpochCalibration UnalignedCalibration() const;

  /// Runs the aligned pipeline over all aligned digests received.
  AlignedReport AnalyzeAligned() const;

  /// Runs the unaligned pipeline over all unaligned digests received:
  /// stacks the epoch once, builds the ER and core graphs in one pair scan,
  /// gates the epoch on the ER test, then finds the core on the core graph
  /// and separates it into per-content clusters (Section II-D).
  UnalignedReport AnalyzeUnaligned() const;

  /// Drops all buffered digests and the epoch's ingest state. The ER and
  /// core lambda tables survive: they depend only on the array width and
  /// the vertex count, so a steady fleet calibrates them once.
  void ClearEpoch();

  /// Keeps the λ tables in `tables` from now on, in place of this
  /// monitor's own pair. Every monitor sharing `tables` must analyze on
  /// the same thread, one at a time. Reports do not change.
  void ShareLambdaTables(std::shared_ptr<UnalignedLambdaTables> tables);

  /// Digests buffered so far.
  std::size_t num_aligned_digests() const { return aligned_routers_.size(); }
  std::size_t num_unaligned_digests() const { return unaligned_.size(); }

  /// Raw traffic bytes summarized by the digests accepted this epoch (for
  /// the >=1000x reduction accounting).
  std::uint64_t raw_bytes_summarized() const { return raw_bytes_; }

  /// Running per-column 1-counts over the aligned digests accepted so far
  /// (maintained only when AlignedPipelineOptions::incremental_weights is
  /// on). Exposed so the differential suite can cross-check the counts
  /// against the BitMatrix::ColumnWeights oracle every epoch.
  const IncrementalColumnWeights& incremental_column_weights() const {
    return incremental_weights_;
  }

 private:
  // Stacks the unaligned digests group-major in router-id order and fills
  // the (router, group) identity of every graph vertex.
  void BuildUnalignedMatrix(BitMatrix* matrix,
                            std::vector<GroupRef>* group_refs) const;

  // Rejection bookkeeping: counts *counter, mirrors it into the ingest.*
  // metrics, optionally quarantines the sender, and returns `reason`.
  Status Reject(std::uint64_t* counter, const char* metric,
                std::uint32_t router_id, Status reason, bool quarantine);

  // Fills the shared (router accounting) part of an EpochCalibration.
  EpochCalibration BaseCalibration(std::uint32_t observed) const;

  // The running column counts when they exactly cover the buffered aligned
  // rows, else nullptr (cold screen).
  const std::vector<std::uint32_t>* AlignedHotWeights() const;

  AlignedPipelineOptions aligned_options_;
  UnalignedPipelineOptions unaligned_options_;
  AnalysisContext context_;
  IngestOptions ingest_options_;
  // Accepted aligned digests: row r of the epoch matrix came from router
  // aligned_routers_[r]. Rows are moved in on accept.
  BitMatrix aligned_rows_;
  std::vector<std::uint32_t> aligned_routers_;
  std::vector<Digest> unaligned_;
  IncrementalColumnWeights incremental_weights_;
  std::uint64_t raw_bytes_ = 0;
  // The ER and core graphs' lambda tables, kept across epochs (ClearEpoch
  // leaves them). Each holds at most span^2 cells of 4 bytes, span being
  // the width of the range of row weights it has seen (at most array
  // bits + 1).
  std::shared_ptr<UnalignedLambdaTables> lambda_tables_ =
      std::make_shared<UnalignedLambdaTables>();

  // Hardened-ingestion state, reset by ClearEpoch().
  EpochIngestStats stats_;
  std::set<std::uint32_t> quarantined_;
  std::set<std::uint32_t> observed_routers_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen_;  // (kind, router)
  bool epoch_locked_ = false;
  std::uint64_t reference_epoch_ = 0;
};

}  // namespace dcs

#endif  // DCS_DCS_MONITOR_H_
