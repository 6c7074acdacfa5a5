#include "dcs/monitor.h"

#include <gtest/gtest.h>

namespace dcs {
namespace {

Digest SmallAlignedDigest(std::uint32_t router, std::size_t bits) {
  Digest digest;
  digest.router_id = router;
  digest.kind = DigestKind::kAligned;
  digest.rows.push_back(BitVector(bits));
  digest.packets_covered = 10;
  digest.raw_bytes_covered = 10000;
  return digest;
}

DcsMonitor MakeMonitor() {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  UnalignedPipelineOptions unaligned;
  return DcsMonitor(aligned, unaligned);
}

TEST(MonitorTest, RejectsEmptyDigest) {
  DcsMonitor monitor = MakeMonitor();
  Digest empty;
  EXPECT_EQ(monitor.AddDigest(empty).code(),
            Status::Code::kInvalidArgument);
}

TEST(MonitorTest, RejectsShapeMismatch) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  EXPECT_FALSE(monitor.AddDigest(SmallAlignedDigest(1, 2048)).ok());
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(1, 1024)).ok());
  EXPECT_EQ(monitor.num_aligned_digests(), 2u);
}

TEST(MonitorTest, TracksByteAccounting) {
  DcsMonitor monitor = MakeMonitor();
  const Digest d = SmallAlignedDigest(0, 1024);
  ASSERT_TRUE(monitor.AddDigest(d).ok());
  EXPECT_EQ(monitor.raw_bytes_summarized(), 10000u);
}

TEST(MonitorTest, ClearEpochResets) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  monitor.ClearEpoch();
  EXPECT_EQ(monitor.num_aligned_digests(), 0u);
  EXPECT_EQ(monitor.raw_bytes_summarized(), 0u);
  // A different shape is fine after clearing.
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 2048)).ok());
}

TEST(MonitorTest, AlignedAnalysisNeedsTwoDigests) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_FALSE(report.common_content_detected);
  EXPECT_EQ(report.matrix_rows, 0u);
}

TEST(MonitorTest, EmptyBitmapsDetectNothing) {
  DcsMonitor monitor = MakeMonitor();
  for (std::uint32_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(r, 1024)).ok());
  }
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_FALSE(report.common_content_detected);
  EXPECT_EQ(report.matrix_rows, 5u);
  EXPECT_EQ(report.matrix_cols, 1024u);
}

TEST(MonitorTest, DuplicateRouterRejected) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  // Same router, same kind: a replay, even with identical content.
  EXPECT_EQ(monitor.AddDigest(SmallAlignedDigest(0, 1024)).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(monitor.num_aligned_digests(), 1u);
  EXPECT_EQ(monitor.ingest_stats().rejected_duplicate, 1u);
  // The offender is quarantined for the rest of the epoch.
  EXPECT_TRUE(monitor.IsQuarantined(0));
  EXPECT_EQ(monitor.AddDigest(SmallAlignedDigest(0, 1024)).code(),
            Status::Code::kFailedPrecondition);
}

TEST(MonitorTest, EpochSkewRejectedAfterLock) {
  DcsMonitor monitor = MakeMonitor();
  Digest first = SmallAlignedDigest(0, 1024);
  first.epoch_id = 41;
  ASSERT_TRUE(monitor.AddDigest(first).ok());  // Locks the epoch to 41.
  Digest stale = SmallAlignedDigest(1, 1024);
  stale.epoch_id = 40;
  EXPECT_EQ(monitor.AddDigest(stale).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(monitor.ingest_stats().rejected_epoch_skew, 1u);
  // A wider window admits it (fresh monitor: options are pre-epoch only).
  IngestOptions ingest;
  ingest.max_epoch_skew = 1;
  DcsMonitor tolerant(AlignedPipelineOptions{}, UnalignedPipelineOptions{},
                      AnalysisContext{}, ingest);
  ASSERT_TRUE(tolerant.AddDigest(first).ok());
  EXPECT_TRUE(tolerant.AddDigest(stale).ok());
}

TEST(MonitorTest, InternalShapeLieRejectedBeforeAnalysis) {
  DcsMonitor monitor = MakeMonitor();
  Digest liar = SmallAlignedDigest(0, 1024);
  liar.num_groups = 7;  // An aligned digest must be 1 group x 1 array.
  EXPECT_EQ(monitor.AddDigest(liar).code(), Status::Code::kCorruption);
  EXPECT_EQ(monitor.ingest_stats().rejected_shape, 1u);

  // Unaligned: row count must equal num_groups * arrays_per_group, with
  // uniform row sizes — BuildUnalignedMatrix hard-asserts this later.
  // Each lie quarantines its sender, so every attempt gets a fresh router.
  Digest unaligned;
  unaligned.kind = DigestKind::kUnaligned;
  unaligned.num_groups = 2;
  unaligned.arrays_per_group = 2;
  unaligned.router_id = 1;
  unaligned.rows = {BitVector(64), BitVector(64), BitVector(64)};
  EXPECT_EQ(monitor.AddDigest(unaligned).code(), Status::Code::kCorruption);
  unaligned.router_id = 2;
  unaligned.rows.push_back(BitVector(32));  // Right count, ragged sizes.
  EXPECT_EQ(monitor.AddDigest(unaligned).code(), Status::Code::kCorruption);
  EXPECT_TRUE(monitor.IsQuarantined(1));
  EXPECT_TRUE(monitor.IsQuarantined(2));
  unaligned.router_id = 3;
  unaligned.rows.back() = BitVector(64);
  EXPECT_TRUE(monitor.AddDigest(unaligned).ok());
}

TEST(MonitorTest, IngestStatsAndCalibrationSurface) {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  IngestOptions ingest;
  ingest.expected_routers = 4;
  DcsMonitor monitor(aligned, UnalignedPipelineOptions{}, AnalysisContext{},
                     ingest);
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(1, 1024)).ok());

  const EpochIngestStats& stats = monitor.ingest_stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.observed_routers, 2u);
  EXPECT_EQ(stats.missing_routers(), 2u);
  EXPECT_TRUE(stats.degraded());
  EXPECT_NE(stats.ToString().find("DEGRADED"), std::string::npos);

  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_TRUE(report.calibration.populated());
  EXPECT_TRUE(report.calibration.degraded);
  EXPECT_EQ(report.calibration.observed_routers, 2u);
  EXPECT_GT(report.calibration.aligned_min_nno_columns, 0);
  // The serialized forms carry the calibration...
  EXPECT_NE(report.ToJson().find("\"calibration\""), std::string::npos);
  EXPECT_NE(report.ToString().find("DEGRADED"), std::string::npos);
  // ...while a directly built report (no monitor) keeps the legacy forms.
  EXPECT_EQ(AlignedReport{}.ToJson().find("calibration"),
            std::string::npos);

  monitor.ClearEpoch();
  EXPECT_EQ(monitor.ingest_stats().accepted, 0u);
  EXPECT_EQ(monitor.ingest_stats().observed_routers, 0u);
}

TEST(MonitorTest, ReportToStringSmoke) {
  AlignedReport a;
  EXPECT_NE(a.ToString().find("clear"), std::string::npos);
  a.common_content_detected = true;
  EXPECT_NE(a.ToString().find("DETECTED"), std::string::npos);
  UnalignedReport u;
  u.largest_component = 7;
  EXPECT_NE(u.ToString().find("largest_cc=7"), std::string::npos);
}

}  // namespace
}  // namespace dcs
