#include "dcs/monitor.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/bit_matrix.h"
#include "common/logging.h"
#include "analysis/aligned_thresholds.h"
#include "analysis/cluster_separation.h"
#include "analysis/er_test.h"
#include "analysis/lambda_table.h"
#include "analysis/unaligned_thresholds.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

namespace {

// The table kept in *table when its key is (array_bits, p_star), else a
// fresh one in its place. Exact compare: p* is recomputed the same way
// from the same vertex count, so an unchanged key compares equal.
const LambdaTable& KeptLambdaTable(std::unique_ptr<const LambdaTable>* table,
                                   std::size_t array_bits, double p_star) {
  if (*table == nullptr || (*table)->array_bits() != array_bits ||
      (*table)->p_star() != p_star) {
    *table = std::make_unique<const LambdaTable>(array_bits, p_star);
  }
  return **table;
}

}  // namespace

DcsMonitor::DcsMonitor(const AlignedPipelineOptions& aligned_options,
                       const UnalignedPipelineOptions& unaligned_options)
    : DcsMonitor(aligned_options, unaligned_options, AnalysisContext{}) {}

DcsMonitor::DcsMonitor(const AlignedPipelineOptions& aligned_options,
                       const UnalignedPipelineOptions& unaligned_options,
                       const AnalysisContext& context)
    : DcsMonitor(aligned_options, unaligned_options, context,
                 IngestOptions{}) {}

DcsMonitor::DcsMonitor(const AlignedPipelineOptions& aligned_options,
                       const UnalignedPipelineOptions& unaligned_options,
                       const AnalysisContext& context,
                       const IngestOptions& ingest_options)
    : aligned_options_(aligned_options),
      unaligned_options_(unaligned_options),
      context_(context),
      ingest_options_(ingest_options) {
  stats_.expected_routers = ingest_options_.expected_routers;
  // The pool serves the unaligned graph build (lambda calibration, pair
  // scan), which inherits it here unless the caller already picked one in
  // the scan options. The aligned engine, peeling and the survivor scan
  // run serially.
  if (unaligned_options_.builder.scan.pool == nullptr) {
    unaligned_options_.builder.scan.pool = context_.pool;
  }
  if (context_.pool != nullptr) {
    ObsGauge("analysis.pool_threads")
        .Set(static_cast<double>(context_.pool->num_threads()));
  }
}

void DcsMonitor::set_ingest_options(const IngestOptions& options) {
  DCS_CHECK(aligned_routers_.empty() && unaligned_.empty());
  ingest_options_ = options;
  stats_ = EpochIngestStats{};
  stats_.expected_routers = options.expected_routers;
}

void DcsMonitor::set_aligned_options(
    const AlignedPipelineOptions& aligned_options) {
  aligned_options_ = aligned_options;
}

Status DcsMonitor::Reject(std::uint64_t* counter, const char* metric,
                          std::uint32_t router_id, Status reason,
                          bool quarantine) {
  ++*counter;
  ObsCounter(metric).Increment();
  if (quarantine && ingest_options_.quarantine_rejected_routers &&
      router_id != kUnknownRouter && quarantined_.insert(router_id).second) {
    stats_.quarantine.push_back(QuarantineEntry{router_id, reason});
    ObsGauge("ingest.quarantined_routers")
        .Set(static_cast<double>(quarantined_.size()));
  }
  return reason;
}

Status DcsMonitor::AddDigest(Digest digest) {
  if (digest.rows.empty()) {
    return Reject(&stats_.rejected_empty, "ingest.rejected.empty",
                  digest.router_id,
                  Status::InvalidArgument("digest has no rows"),
                  /*quarantine=*/false);
  }
  // Internal consistency: the header's shape fields must agree with the rows
  // actually carried. The wire checksum cannot catch a resealed lying
  // header, and BuildUnalignedMatrix hard-asserts this invariant later, so a
  // forged digest must die here with a Status instead.
  const std::size_t claimed_rows =
      digest.kind == DigestKind::kAligned
          ? 1u
          : static_cast<std::size_t>(digest.num_groups) *
                digest.arrays_per_group;
  bool internally_consistent = digest.rows.size() == claimed_rows;
  if (digest.kind == DigestKind::kAligned) {
    internally_consistent = internally_consistent &&
                            digest.num_groups == 1 &&
                            digest.arrays_per_group == 1;
  }
  for (std::size_t r = 1; internally_consistent && r < digest.rows.size();
       ++r) {
    internally_consistent = digest.rows[r].size() == digest.rows[0].size();
  }
  if (!internally_consistent) {
    return Reject(&stats_.rejected_shape, "ingest.rejected.shape",
                  digest.router_id,
                  Status::Corruption(
                      "digest header shape disagrees with its own rows"),
                  /*quarantine=*/true);
  }
  if (IsQuarantined(digest.router_id)) {
    return Reject(&stats_.rejected_quarantined, "ingest.rejected.quarantined",
                  digest.router_id,
                  Status::FailedPrecondition("router is quarantined"),
                  /*quarantine=*/false);
  }
  const auto seen_key = std::make_pair(
      static_cast<std::uint32_t>(digest.kind), digest.router_id);
  if (seen_.count(seen_key) > 0) {
    return Reject(&stats_.rejected_duplicate, "ingest.rejected.duplicate",
                  digest.router_id,
                  Status::InvalidArgument(
                      "duplicate digest for this router and kind"),
                  /*quarantine=*/true);
  }
  // Epoch window: the reference is either configured or locked to the first
  // accepted digest (collectors here all start at epoch 0).
  const std::uint64_t reference = ingest_options_.lock_epoch_to_first
                                      ? reference_epoch_
                                      : ingest_options_.expected_epoch;
  const bool have_reference =
      !ingest_options_.lock_epoch_to_first || epoch_locked_;
  if (have_reference) {
    const std::uint64_t skew = digest.epoch_id > reference
                                   ? digest.epoch_id - reference
                                   : reference - digest.epoch_id;
    if (skew > ingest_options_.max_epoch_skew) {
      return Reject(&stats_.rejected_epoch_skew, "ingest.rejected.epoch_skew",
                    digest.router_id,
                    Status::FailedPrecondition(
                        digest.epoch_id > reference
                            ? "digest epoch_id is in the future"
                            : "digest epoch_id is stale"),
                    /*quarantine=*/true);
    }
  }
  // Aligned digests are 1 x 1 (checked above), so their shape is the row
  // width alone.
  const bool shape_differs =
      digest.kind == DigestKind::kAligned
          ? !aligned_routers_.empty() &&
                digest.rows.front().size() != aligned_rows_.cols()
          : !unaligned_.empty() &&
                (digest.rows.front().size() !=
                     unaligned_.front().rows.front().size() ||
                 digest.num_groups != unaligned_.front().num_groups ||
                 digest.arrays_per_group !=
                     unaligned_.front().arrays_per_group);
  if (shape_differs) {
    // Misconfiguration rather than forgery: never quarantines, so a router
    // can resend with the right shape.
    return Reject(&stats_.rejected_shape, "ingest.rejected.shape",
                  digest.router_id,
                  Status::InvalidArgument(
                      "digest shape disagrees with earlier digests of "
                      "this epoch"),
                  /*quarantine=*/false);
  }
  if (!epoch_locked_) {
    epoch_locked_ = true;
    reference_epoch_ = digest.epoch_id;
  }
  seen_.insert(seen_key);
  observed_routers_.insert(digest.router_id);
  ++stats_.accepted;
  stats_.observed_routers =
      static_cast<std::uint32_t>(observed_routers_.size());
  ObsCounter("ingest.accepted").Increment();
  ObsGauge("ingest.missing_routers")
      .Set(static_cast<double>(stats_.missing_routers()));
  raw_bytes_ += digest.raw_bytes_covered;
  ObsCounter(digest.kind == DigestKind::kAligned
                 ? "monitor.digests_received.aligned"
                 : "monitor.digests_received.unaligned")
      .Increment();
  ObsCounter("monitor.raw_bytes_summarized").Add(digest.raw_bytes_covered);
  if (digest.kind == DigestKind::kUnaligned) {
    unaligned_.push_back(std::move(digest));
    return Status::Ok();
  }
  if (aligned_options_.incremental_weights) {
    // Fold the accepted row into the running column counts now, while the
    // digest is hot in cache. Rejected digests never reach this point, so a
    // quarantined or duplicate sender cannot perturb the counts.
    incremental_weights_.AddRow(digest.rows.front());
  }
  // The row becomes the epoch matrix's next row as it arrives, so analysis
  // stacks nothing.
  aligned_routers_.push_back(digest.router_id);
  aligned_rows_.AppendRow(std::move(digest.rows.front()));
  return Status::Ok();
}

Status DcsMonitor::AddEncodedDigest(const std::vector<std::uint8_t>& bytes) {
  Digest digest;
  const Status decoded = Digest::Decode(bytes, &digest);
  if (!decoded.ok()) {
    // Never quarantines: the router id inside a corrupt message is
    // unauthenticated, so a third party must not be able to get an honest
    // router banned by spraying garbage in its name.
    ++stats_.rejected_decode;
    ObsCounter("ingest.rejected.decode").Increment();
    return decoded;
  }
  return AddDigest(std::move(digest));
}

EpochCalibration DcsMonitor::BaseCalibration(std::uint32_t observed) const {
  EpochCalibration c;
  c.expected_routers = ingest_options_.expected_routers;
  c.observed_routers = observed;
  c.degraded = c.expected_routers > 0 && observed < c.expected_routers;
  return c;
}

EpochCalibration DcsMonitor::AlignedCalibration() const {
  // One aligned digest per router (duplicates were rejected), so the matrix
  // height m' is exactly the digest count.
  EpochCalibration c =
      BaseCalibration(static_cast<std::uint32_t>(aligned_routers_.size()));
  if (aligned_routers_.size() < 2) return c;
  const auto m = static_cast<std::int64_t>(aligned_rows_.rows());
  const auto n = static_cast<std::int64_t>(aligned_rows_.cols());
  // Full-height pattern (a = m'): Eq 1 gives the narrowest submatrix the
  // NNO gate will accept at this epoch's actual height.
  c.aligned_min_nno_columns = MinNonNaturallyOccurringB(
      m, n, m, aligned_options_.detector.nno_epsilon);
  DetectabilityOptions detect;
  detect.n_prime = std::min(
      static_cast<std::int64_t>(aligned_options_.n_prime), n);
  detect.epsilon = aligned_options_.detector.nno_epsilon;
  c.aligned_detectable_columns = DetectableThresholdB(
      m, n, m, ingest_options_.detect_target_prob,
      std::min(n, ingest_options_.max_detectable_columns), detect);
  return c;
}

EpochCalibration DcsMonitor::UnalignedCalibration() const {
  EpochCalibration c =
      BaseCalibration(static_cast<std::uint32_t>(unaligned_.size()));
  std::int64_t vertices = 0;
  for (const Digest& digest : unaligned_) vertices += digest.num_groups;
  if (vertices < 2) return c;
  // (p1, d) co-tuning (Eqs 2-3) against the vertex count the correlation
  // graph will actually have with m' routers reporting.
  UnalignedNnoOptions nno;
  nno.num_vertices = vertices;
  nno.p2 = ingest_options_.calibration_p2;
  nno.max_m = std::min(ingest_options_.calibration_max_m, vertices);
  const UnalignedNnoResult result = MinNonNaturallyOccurringClusterSize(nno);
  c.unaligned_min_cluster = result.min_cluster_size;
  c.unaligned_p1 = result.best_p1;
  c.unaligned_d = result.best_d;
  return c;
}

const std::vector<std::uint32_t>* DcsMonitor::AlignedHotWeights() const {
  // The running counts stand in for the weight pass only when they cover
  // exactly the rows being analyzed — if the flag was flipped mid-epoch (a
  // ring slot degraded after ingest started) the counts are stale and the
  // screen must run cold. Analysis stays correct either way.
  if (!aligned_options_.incremental_weights) return nullptr;
  if (incremental_weights_.num_rows() != aligned_rows_.rows()) return nullptr;
  return &incremental_weights_.weights();
}

AlignedReport DcsMonitor::AnalyzeAligned() const {
  ScopedStageTimer epoch_timer("analyze_aligned");
  ObsCounter("monitor.epochs_analyzed.aligned").Increment();
  AlignedReport report;
  report.calibration = AlignedCalibration();
  if (aligned_routers_.size() < 2) return report;
  if (report.calibration.degraded) {
    ObsCounter("ingest.degraded_epochs").Increment();
  }
  report.matrix_rows = aligned_rows_.rows();
  report.matrix_cols = aligned_rows_.cols();

  AlignedDetector detector(aligned_options_.detector);
  const AlignedDetection detection = detector.DetectInMatrix(
      aligned_rows_, aligned_options_.n_prime, AlignedHotWeights());
  report.common_content_detected = detection.pattern_found;
  if (detection.pattern_found) {
    report.routers.reserve(detection.rows.size());
    for (std::uint32_t row : detection.rows) {
      report.routers.push_back(aligned_routers_[row]);
    }
    std::sort(report.routers.begin(), report.routers.end());
    report.signature_columns = detection.columns;
  }
  return report;
}

void DcsMonitor::BuildUnalignedMatrix(
    BitMatrix* matrix, std::vector<GroupRef>* group_refs) const {
  // Merge digests vertically (Section IV-B): all rows, group-major, with a
  // global group id per (router, group). Digests stack by router id (unique
  // once duplicates are rejected), so no tie-break depends on arrival order.
  std::vector<std::size_t> order(unaligned_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return unaligned_[a].router_id < unaligned_[b].router_id;
  });
  const std::size_t arrays = unaligned_.front().arrays_per_group;
  for (const std::size_t at : order) {
    const Digest& digest = unaligned_[at];
    DCS_CHECK(digest.rows.size() ==
              static_cast<std::size_t>(digest.num_groups) * arrays);
    for (std::uint32_t g = 0; g < digest.num_groups; ++g) {
      group_refs->push_back(GroupRef{digest.router_id, g});
    }
    for (const BitVector& row : digest.rows) {
      matrix->AppendRow(row);
    }
  }
}

UnalignedReport DcsMonitor::AnalyzeUnaligned() const {
  ScopedStageTimer epoch_timer("analyze_unaligned");
  ObsCounter("monitor.epochs_analyzed.unaligned").Increment();
  UnalignedReport report;
  report.calibration = UnalignedCalibration();
  if (unaligned_.empty()) return report;

  BitMatrix matrix;
  // Graph vertex id -> (router, group).
  std::vector<GroupRef> group_refs;
  {
    ScopedStageTimer timer("stack_matrix");
    BuildUnalignedMatrix(&matrix, &group_refs);
  }
  const std::size_t arrays = unaligned_.front().arrays_per_group;
  const std::size_t n = group_refs.size();
  report.num_vertices = n;
  if (n < 2) return report;
  if (report.calibration.degraded) {
    ObsCounter("ingest.degraded_epochs").Increment();
  }

  // Both graphs from one pair scan, against lambda tables kept across
  // epochs: the ER graph at p1 below the 1/n phase transition, and the
  // denser core graph G' at core_p1 (Section IV-B).
  GraphBuilderOptions builder = unaligned_options_.builder;
  builder.arrays_per_group = arrays;
  const LambdaTable& er_lambda = KeptLambdaTable(
      &lambda_tables_->er, matrix.cols(),
      LambdaTable::PStarFromEdgeProb(
          unaligned_options_.er_p1_times_n / static_cast<double>(n), arrays));
  const double core_p1 =
      unaligned_options_.core_p1_times_n / static_cast<double>(n);
  Graph er_graph(0);
  Graph core_graph(0);
  if (core_p1 < 1.0) {
    const LambdaTable& core_lambda = KeptLambdaTable(
        &lambda_tables_->core, matrix.cols(),
        LambdaTable::PStarFromEdgeProb(core_p1, arrays));
    std::tie(er_graph, core_graph) =
        BuildCorrelationGraphs(matrix, er_lambda, core_lambda, builder);
  } else {
    // G' needs p1' < 1, i.e. more vertices than core_p1_times_n; with
    // fewer, the ER test cannot fire at its default threshold.
    er_graph = BuildCorrelationGraph(matrix, er_lambda, builder);
  }

  {
    const std::size_t threshold =
        unaligned_options_.er_threshold > 0
            ? unaligned_options_.er_threshold
            : DefaultErTestThreshold(n);
    ScopedStageTimer timer("er_test");
    const ErTestResult er = RunErTest(er_graph, threshold);
    report.largest_component = er.largest_component;
    report.er_threshold = threshold;
    report.common_content_detected = er.pattern_detected;
  }
  if (!report.common_content_detected) return report;
  DCS_CHECK(core_p1 < 1.0)
      << "core_p1_times_n " << unaligned_options_.core_p1_times_n
      << " needs more than that many vertices, have " << n;
  report.num_edges = core_graph.num_edges();

  const UnalignedDetection detection =
      DetectUnalignedPattern(core_graph, unaligned_options_.detector);
  for (Graph::VertexId v : detection.detected) {
    report.groups.push_back(group_refs[v]);
    report.routers.push_back(group_refs[v].router_id);
  }
  std::sort(report.routers.begin(), report.routers.end());
  report.routers.erase(
      std::unique(report.routers.begin(), report.routers.end()),
      report.routers.end());
  // Per-content breakdown of the detected set (Section II-D).
  ScopedStageTimer separation_timer("cluster_separation");
  for (const std::vector<Graph::VertexId>& cluster :
       SeparateClusters(core_graph, detection.detected,
                        unaligned_options_.separation)) {
    std::vector<GroupRef> refs;
    refs.reserve(cluster.size());
    for (Graph::VertexId v : cluster) refs.push_back(group_refs[v]);
    report.clusters.push_back(std::move(refs));
  }
  return report;
}

void DcsMonitor::ClearEpoch() {
  aligned_rows_ = BitMatrix();
  aligned_routers_.clear();
  unaligned_.clear();
  incremental_weights_.Reset();
  raw_bytes_ = 0;
  stats_ = EpochIngestStats{};
  stats_.expected_routers = ingest_options_.expected_routers;
  quarantined_.clear();
  observed_routers_.clear();
  seen_.clear();
  epoch_locked_ = false;
  reference_epoch_ = 0;
}

void DcsMonitor::ShareLambdaTables(
    std::shared_ptr<UnalignedLambdaTables> tables) {
  DCS_CHECK(tables != nullptr);
  lambda_tables_ = std::move(tables);
}

}  // namespace dcs
