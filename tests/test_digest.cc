#include "sketch/digest.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcs/epoch_ring.h"
#include "dcs/monitor.h"

namespace dcs {
namespace {

Digest MakeUnalignedDigest() {
  Digest digest;
  digest.router_id = 42;
  digest.epoch_id = 7;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = 2;
  digest.arrays_per_group = 3;
  for (std::size_t r = 0; r < 6; ++r) {
    BitVector row(128);
    row.Set(r);
    row.Set(100 + r);
    digest.rows.push_back(row);
  }
  digest.packets_covered = 1234;
  digest.raw_bytes_covered = 1000000;
  return digest;
}

TEST(DigestTest, EncodeDecodeRoundTrip) {
  const Digest original = MakeUnalignedDigest();
  const std::vector<std::uint8_t> bytes = original.Encode();
  EXPECT_EQ(bytes.size(), original.EncodedSizeBytes());

  Digest decoded;
  ASSERT_TRUE(Digest::Decode(bytes, &decoded).ok());
  EXPECT_EQ(decoded.router_id, original.router_id);
  EXPECT_EQ(decoded.epoch_id, original.epoch_id);
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.num_groups, original.num_groups);
  EXPECT_EQ(decoded.arrays_per_group, original.arrays_per_group);
  EXPECT_EQ(decoded.packets_covered, original.packets_covered);
  EXPECT_EQ(decoded.raw_bytes_covered, original.raw_bytes_covered);
  ASSERT_EQ(decoded.rows.size(), original.rows.size());
  for (std::size_t r = 0; r < decoded.rows.size(); ++r) {
    EXPECT_TRUE(decoded.rows[r] == original.rows[r]) << "row " << r;
  }
}

TEST(DigestTest, ChecksumCatchesBitFlip) {
  std::vector<std::uint8_t> bytes = MakeUnalignedDigest().Encode();
  bytes[bytes.size() / 2] ^= 0x20;
  Digest decoded;
  EXPECT_EQ(Digest::Decode(bytes, &decoded).code(),
            Status::Code::kCorruption);
}

TEST(DigestTest, TruncationRejected) {
  std::vector<std::uint8_t> bytes = MakeUnalignedDigest().Encode();
  bytes.resize(bytes.size() - 9);
  Digest decoded;
  EXPECT_FALSE(Digest::Decode(bytes, &decoded).ok());
}

TEST(DigestTest, TooShortBufferRejected) {
  Digest decoded;
  EXPECT_FALSE(Digest::Decode({1, 2, 3}, &decoded).ok());
}

TEST(DigestTest, CompressionFactorAccounting) {
  Digest digest = MakeUnalignedDigest();
  // Rows hold 2 bits each, so they encode sparse (~5 bytes/row) and the
  // whole digest is ~90 bytes against 1e6 raw bytes.
  const double factor = digest.CompressionFactor();
  EXPECT_GT(factor, 5000.0);
  EXPECT_LT(factor, 20000.0);
}

TEST(DigestTest, CompressionFactorOfEmptyCoverageIsZero) {
  // A digest that covered no traffic must report factor 0, not divide by
  // zero (the encoding itself is never empty — header + checksum).
  Digest idle;
  idle.kind = DigestKind::kAligned;
  idle.rows.push_back(BitVector(128));
  idle.packets_covered = 0;
  idle.raw_bytes_covered = 0;
  EXPECT_EQ(idle.CompressionFactor(), 0.0);
  EXPECT_GT(idle.EncodedSizeBytes(), 0u);

  Digest blank;  // No rows either.
  EXPECT_EQ(blank.CompressionFactor(), 0.0);
}

TEST(DigestTest, SparseRowsShrinkTheEncoding) {
  // A nearly-empty 4096-bit row must encode far below its 512-byte dense
  // size; a half-full row must stay dense.
  Digest sparse;
  sparse.kind = DigestKind::kAligned;
  BitVector light(4096);
  for (std::size_t i = 0; i < 20; ++i) light.Set(i * 200);
  sparse.rows.push_back(light);
  EXPECT_LT(sparse.EncodedSizeBytes(), 64u + 120u);

  Digest dense;
  dense.kind = DigestKind::kAligned;
  BitVector heavy(4096);
  for (std::size_t i = 0; i < 4096; i += 2) heavy.Set(i);
  dense.rows.push_back(heavy);
  EXPECT_GE(dense.EncodedSizeBytes(), 512u);
  EXPECT_LE(dense.EncodedSizeBytes(), 512u + 80u);

  // Both round-trip exactly.
  for (const Digest* d : {&sparse, &dense}) {
    Digest decoded;
    ASSERT_TRUE(Digest::Decode(d->Encode(), &decoded).ok());
    EXPECT_TRUE(decoded.rows[0] == d->rows[0]);
  }
}

TEST(DigestTest, MixedSparseAndDenseRowsRoundTrip) {
  Digest digest;
  digest.kind = DigestKind::kUnaligned;
  digest.num_groups = 1;
  digest.arrays_per_group = 3;
  BitVector empty(1024);
  BitVector full(1024);
  for (std::size_t i = 0; i < 1024; ++i) full.Set(i);
  BitVector half(1024);
  for (std::size_t i = 0; i < 1024; i += 2) half.Set(i);
  digest.rows = {empty, full, half};
  Digest decoded;
  ASSERT_TRUE(Digest::Decode(digest.Encode(), &decoded).ok());
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(decoded.rows[r] == digest.rows[r]) << r;
  }
}

TEST(DigestTest, AlignedSingleRowDigest) {
  Digest digest;
  digest.kind = DigestKind::kAligned;
  BitVector row(4096);
  row.Set(17);
  digest.rows.push_back(row);
  const auto bytes = digest.Encode();
  Digest decoded;
  ASSERT_TRUE(Digest::Decode(bytes, &decoded).ok());
  EXPECT_EQ(decoded.kind, DigestKind::kAligned);
  ASSERT_EQ(decoded.rows.size(), 1u);
  EXPECT_TRUE(decoded.rows[0].Test(17));
}

// Bernoulli(fill) row; with `islands`, only a few 50%-full word runs in an
// otherwise empty row instead (the shape the RLE form wins on).
BitVector FillRow(std::size_t bits, double fill, bool islands, Rng* rng) {
  BitVector row(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    const bool in_island = !islands || (i / 64) % 9 == 4 || (i / 64) % 13 == 0;
    if (in_island && rng->Bernoulli(fill)) row.Set(i);
  }
  return row;
}

// Size accounting is computed, not encoded: it must agree with the bytes
// Encode() emits for every fill regime and every ragged row length.
TEST(DigestTest, EncodedSizeMatchesEncodeAcrossFillsAndLengths) {
  Rng rng(31);
  const double fills[] = {0.0, 0.001, 0.01, 0.05, 0.25, 0.5, 1.0};
  std::vector<std::size_t> lengths;
  for (std::size_t bits = 0; bits < 200; ++bits) lengths.push_back(bits);
  for (std::size_t bits = 200; bits <= 8192; bits += 97) {
    lengths.push_back(bits);
  }
  for (const std::size_t bits : {4095u, 4096u, 4097u, 8191u, 8192u}) {
    lengths.push_back(bits);
  }
  for (const std::size_t bits : lengths) {
    for (const double fill : fills) {
      for (const bool islands : {false, true}) {
        Digest digest;
        digest.kind = DigestKind::kAligned;
        digest.rows.push_back(FillRow(bits, fill, islands, &rng));
        ASSERT_EQ(digest.EncodedSizeBytes(), digest.Encode().size())
            << "bits=" << bits << " fill=" << fill << " islands=" << islands;
      }
    }
  }
  // Multi-row digests sum their rows' sizes.
  Digest unaligned = MakeUnalignedDigest();
  unaligned.rows[1] = FillRow(128, 1.0, false, &rng);
  unaligned.rows[2] = FillRow(128, 0.5, true, &rng);
  EXPECT_EQ(unaligned.EncodedSizeBytes(), unaligned.Encode().size());
}

// Aligned digests with a planted 10-router pattern plus one unaligned
// digest per router: enough for both pipelines to produce a report.
std::vector<Digest> IngestDigests() {
  Rng rng(5);
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < 12; ++r) {
    Digest aligned;
    aligned.router_id = r;
    aligned.kind = DigestKind::kAligned;
    aligned.packets_covered = 100 + r;
    aligned.raw_bytes_covered = 53600 + r;
    aligned.rows.push_back(FillRow(2048, r % 3 == 0 ? 0.01 : 0.4, false, &rng));
    if (r < 10) {
      for (std::size_t c = 0; c < 24; ++c) aligned.rows[0].Set(5 + 83 * c);
    }
    digests.push_back(std::move(aligned));
    Digest unaligned = MakeUnalignedDigest();
    unaligned.router_id = r;
    unaligned.epoch_id = 0;
    for (BitVector& row : unaligned.rows) row = FillRow(128, 0.3, false, &rng);
    digests.push_back(std::move(unaligned));
  }
  return digests;
}

DcsReport ReportOf(const DcsMonitor& monitor) {
  DcsReport report;
  report.aligned = monitor.AnalyzeAligned();
  report.unaligned = monitor.AnalyzeUnaligned();
  report.digests_accepted = monitor.ingest_stats().accepted;
  report.digests_rejected = monitor.ingest_stats().rejected_total();
  report.observed_routers = monitor.ingest_stats().observed_routers;
  return report;
}

// Moving a digest into the monitor is indistinguishable from copying it:
// same reports, same raw-byte accounting, same running column weights.
TEST(DigestTest, MovedDigestIngestMatchesCopiedIngest) {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 128;
  aligned.incremental_weights = true;
  DcsMonitor copied(aligned, UnalignedPipelineOptions{});
  DcsMonitor moved(aligned, UnalignedPipelineOptions{});
  const std::vector<Digest> digests = IngestDigests();
  for (const Digest& digest : digests) {
    ASSERT_TRUE(copied.AddDigest(digest).ok());
    Digest copy = digest;
    ASSERT_TRUE(moved.AddDigest(std::move(copy)).ok());
  }
  // A duplicate is refused the same way on both paths.
  EXPECT_FALSE(copied.AddDigest(digests.front()).ok());
  Digest duplicate = digests.front();
  EXPECT_FALSE(moved.AddDigest(std::move(duplicate)).ok());

  EXPECT_EQ(moved.raw_bytes_summarized(), copied.raw_bytes_summarized());
  EXPECT_EQ(moved.incremental_column_weights().weights(),
            copied.incremental_column_weights().weights());
  const DcsReport from_copies = ReportOf(copied);
  EXPECT_TRUE(from_copies.aligned.common_content_detected);
  EXPECT_TRUE(ReportOf(moved) == from_copies);
}

}  // namespace
}  // namespace dcs
