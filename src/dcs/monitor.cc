#include "dcs/monitor.h"

#include <algorithm>

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
  // The options only ever switch observability on: another component (or
  // the workbench --metrics flag) may have enabled the registry already.
  if (aligned_options.obs.enabled || unaligned_options.obs.enabled) {
    MetricsRegistry::Global().set_enabled(true);
  }
  // One pool serves both pipelines end to end: the aligned engine takes the
  // context directly, and the unaligned graph build (row weights, lambda
  // calibration, pair scan) inherits it here unless the caller already
  // picked one in the scan options. Peeling and the survivor scan get the
  // context at the DetectUnalignedPattern call sites.
  if (unaligned_options_.builder.scan.pool == nullptr) {
    unaligned_options_.builder.scan.pool = context_.pool;
  }
  if (context_.pool != nullptr) {
    ObsGauge("analysis.pool_threads")
        .Set(static_cast<double>(context_.pool->num_threads()));
  }
}

void DcsMonitor::set_ingest_options(const IngestOptions& options) {
  DCS_CHECK(aligned_.empty() && unaligned_.empty());
  ingest_options_ = options;
  stats_ = EpochIngestStats{};
  stats_.expected_routers = options.expected_routers;
}

void DcsMonitor::set_analysis_options(
    const AlignedPipelineOptions& aligned_options,
    const UnalignedPipelineOptions& unaligned_options) {
  aligned_options_ = aligned_options;
  unaligned_options_ = unaligned_options;
  // Same pool-inheritance rule as the constructor: one pool per analysis
  // center unless the scan options brought their own.
  if (unaligned_options_.builder.scan.pool == nullptr) {
    unaligned_options_.builder.scan.pool = context_.pool;
  }
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

Status DcsMonitor::AddDigest(const Digest& digest) {
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
  std::vector<Digest>* bucket =
      digest.kind == DigestKind::kAligned ? &aligned_ : &unaligned_;
  if (!bucket->empty()) {
    const Digest& first = bucket->front();
    if (digest.rows.front().size() != first.rows.front().size() ||
        digest.num_groups != first.num_groups ||
        digest.arrays_per_group != first.arrays_per_group) {
      // Misconfiguration rather than forgery: never quarantines, so a
      // router can resend with the right shape.
      return Reject(&stats_.rejected_shape, "ingest.rejected.shape",
                    digest.router_id,
                    Status::InvalidArgument(
                        "digest shape disagrees with earlier digests of "
                        "this epoch"),
                    /*quarantine=*/false);
    }
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
  const std::size_t encoded_bytes = digest.EncodedSizeBytes();
  digest_bytes_ += encoded_bytes;
  raw_bytes_ += digest.raw_bytes_covered;
  ObsCounter(digest.kind == DigestKind::kAligned
                 ? "monitor.digests_received.aligned"
                 : "monitor.digests_received.unaligned")
      .Increment();
  ObsCounter("monitor.digest_bytes_received").Add(encoded_bytes);
  ObsCounter("monitor.raw_bytes_summarized").Add(digest.raw_bytes_covered);
  if (digest.kind == DigestKind::kAligned &&
      aligned_options_.incremental_weights) {
    // Fold the accepted row into the running column counts now, while the
    // digest is hot in cache. Rejected digests never reach this point, so a
    // quarantined or duplicate sender cannot perturb the counts.
    incremental_weights_.AddRow(digest.rows.front());
  }
  bucket->push_back(digest);
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
  return AddDigest(digest);
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
      BaseCalibration(static_cast<std::uint32_t>(aligned_.size()));
  if (aligned_.size() < 2) return c;
  const auto m = static_cast<std::int64_t>(aligned_.size());
  const auto n =
      static_cast<std::int64_t>(aligned_.front().rows.front().size());
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
  if (incremental_weights_.num_rows() != aligned_.size()) return nullptr;
  return &incremental_weights_.weights();
}

std::vector<AlignedReport> DcsMonitor::AnalyzeAlignedAll(
    std::size_t max_patterns) const {
  std::vector<AlignedReport> reports;
  if (aligned_.size() < 2) return reports;
  const EpochCalibration calibration = AlignedCalibration();
  BitMatrix matrix;
  for (const Digest& digest : aligned_) {
    matrix.AppendRow(digest.rows.front());
  }
  AlignedDetector detector(aligned_options_.detector, context_);
  for (const AlignedDetection& detection : detector.DetectMultipleInMatrix(
           matrix, aligned_options_.n_prime, max_patterns,
           AlignedHotWeights())) {
    AlignedReport report;
    report.calibration = calibration;
    report.matrix_rows = matrix.rows();
    report.matrix_cols = matrix.cols();
    report.common_content_detected = true;
    for (std::uint32_t row : detection.rows) {
      report.routers.push_back(aligned_[row].router_id);
    }
    std::sort(report.routers.begin(), report.routers.end());
    report.signature_columns = detection.columns;
    reports.push_back(std::move(report));
  }
  return reports;
}

AlignedReport DcsMonitor::AnalyzeAligned() const {
  ScopedStageTimer epoch_timer("analyze_aligned");
  ObsCounter("monitor.epochs_analyzed.aligned").Increment();
  AlignedReport report;
  report.calibration = AlignedCalibration();
  if (aligned_.size() < 2) return report;
  if (report.calibration.degraded) {
    ObsCounter("ingest.degraded_epochs").Increment();
  }

  // Stack one row per router bitmap.
  BitMatrix matrix;
  {
    ScopedStageTimer timer("stack_matrix");
    for (const Digest& digest : aligned_) {
      matrix.AppendRow(digest.rows.front());
    }
  }
  report.matrix_rows = matrix.rows();
  report.matrix_cols = matrix.cols();

  AlignedDetector detector(aligned_options_.detector, context_);
  const AlignedDetection detection = detector.DetectInMatrix(
      matrix, aligned_options_.n_prime, AlignedHotWeights());
  report.common_content_detected = detection.pattern_found;
  if (detection.pattern_found) {
    report.routers.reserve(detection.rows.size());
    for (std::uint32_t row : detection.rows) {
      report.routers.push_back(aligned_[row].router_id);
    }
    std::sort(report.routers.begin(), report.routers.end());
    report.signature_columns = detection.columns;
  }
  return report;
}

void DcsMonitor::BuildUnalignedMatrix(
    BitMatrix* matrix, std::vector<GroupRef>* group_refs) const {
  // Merge digests vertically (Section IV-B): all rows, group-major, with a
  // global group id per (router, group).
  const std::size_t arrays = unaligned_.front().arrays_per_group;
  for (const Digest& digest : unaligned_) {
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

std::vector<UnalignedReport> DcsMonitor::AnalyzeUnalignedAll(
    std::size_t max_patterns) const {
  std::vector<UnalignedReport> reports;
  const UnalignedReport epoch = AnalyzeUnaligned();
  if (!epoch.common_content_detected) return reports;

  BitMatrix matrix;
  std::vector<GroupRef> group_refs;
  BuildUnalignedMatrix(&matrix, &group_refs);
  const std::size_t n = group_refs.size();
  const std::size_t arrays = unaligned_.front().arrays_per_group;
  const double core_p1 =
      unaligned_options_.core_p1_times_n / static_cast<double>(n);
  LambdaTable lambda_core(matrix.cols(),
                          LambdaTable::PStarFromEdgeProb(core_p1, arrays));
  GraphBuilderOptions builder = unaligned_options_.builder;
  builder.arrays_per_group = arrays;
  const Graph core_graph =
      BuildCorrelationGraph(matrix, lambda_core, builder);

  MultiPatternOptions multi;
  multi.detector = unaligned_options_.detector;
  multi.max_patterns = max_patterns;
  multi.p_background = core_p1;
  for (const UnalignedDetection& detection :
       DetectMultipleUnalignedPatterns(core_graph, multi, context_)) {
    UnalignedReport report = epoch;  // Shared ER statistics.
    report.groups.clear();
    report.routers.clear();
    report.clusters.clear();
    report.num_edges = core_graph.num_edges();
    for (Graph::VertexId v : detection.detected) {
      report.groups.push_back(group_refs[v]);
      report.routers.push_back(group_refs[v].router_id);
    }
    std::sort(report.routers.begin(), report.routers.end());
    report.routers.erase(
        std::unique(report.routers.begin(), report.routers.end()),
        report.routers.end());
    reports.push_back(std::move(report));
  }
  return reports;
}

UnalignedReport DcsMonitor::AnalyzeUnaligned() const {
  ScopedStageTimer epoch_timer("analyze_unaligned");
  ObsCounter("monitor.epochs_analyzed.unaligned").Increment();
  UnalignedReport report;
  report.calibration = UnalignedCalibration();
  if (unaligned_.empty()) return report;

  BitMatrix matrix;
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

  // ER test on the sparse graph (p1 below the 1/n phase transition).
  const double er_p1 =
      unaligned_options_.er_p1_times_n / static_cast<double>(n);
  GraphBuilderOptions builder = unaligned_options_.builder;
  {
    LambdaTable lambda(matrix.cols(),
                       LambdaTable::PStarFromEdgeProb(er_p1, arrays));
    builder.arrays_per_group = arrays;
    Graph er_graph(0);
    {
      ScopedStageTimer timer("er_graph");
      er_graph = BuildCorrelationGraph(matrix, lambda, builder);
    }
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

  // Core finding on the denser graph G' (lambda' from the larger p1).
  const double core_p1 =
      unaligned_options_.core_p1_times_n / static_cast<double>(n);
  LambdaTable lambda_core(matrix.cols(),
                          LambdaTable::PStarFromEdgeProb(core_p1, arrays));
  Graph core_graph(0);
  {
    ScopedStageTimer timer("core_graph");
    core_graph = BuildCorrelationGraph(matrix, lambda_core, builder);
  }
  report.num_edges = core_graph.num_edges();
  const UnalignedDetection detection =
      DetectUnalignedPattern(core_graph, unaligned_options_.detector,
                             context_);
  report.groups.reserve(detection.detected.size());
  for (Graph::VertexId v : detection.detected) {
    report.groups.push_back(group_refs[v]);
    report.routers.push_back(group_refs[v].router_id);
  }
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
  std::sort(report.routers.begin(), report.routers.end());
  report.routers.erase(
      std::unique(report.routers.begin(), report.routers.end()),
      report.routers.end());
  return report;
}

void DcsMonitor::ClearEpoch() {
  aligned_.clear();
  unaligned_.clear();
  incremental_weights_.Reset();
  digest_bytes_ = 0;
  raw_bytes_ = 0;
  stats_ = EpochIngestStats{};
  stats_.expected_routers = ingest_options_.expected_routers;
  quarantined_.clear();
  observed_routers_.clear();
  seen_.clear();
  epoch_locked_ = false;
  reference_epoch_ = 0;
}

}  // namespace dcs
