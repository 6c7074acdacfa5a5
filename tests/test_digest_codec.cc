// The digest payload codecs (src/sketch/digest_codec.h,
// docs/DISTRIBUTED.md).
//
// The raw codec is the trivially-correct oracle: every property of the
// sparse codec is checked differentially against it — identical decoded
// digest, never a larger wire image than it needs, strict rejection of rows
// a codec is not allowed to emit.

#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "sketch/digest.h"
#include "sketch/digest_codec.h"

namespace dcs {
namespace {

// One-row aligned digest with `ones` set bits scattered by `rng` (or evenly
// when rng == nullptr).
Digest MakeDigest(std::size_t row_bits, std::size_t ones, Rng* rng = nullptr) {
  Digest digest;
  digest.kind = DigestKind::kAligned;
  digest.router_id = 3;
  digest.epoch_id = 9;
  BitVector row(row_bits);
  if (rng != nullptr) {
    std::size_t set = 0;
    while (set < ones) {
      const std::size_t i = rng->UniformInt(row_bits);
      if (!row.Test(i)) {
        row.Set(i);
        ++set;
      }
    }
  } else {
    for (std::size_t k = 0; k < ones; ++k) {
      row.Set(k * row_bits / (ones == 0 ? 1 : ones));
    }
  }
  digest.rows.push_back(std::move(row));
  digest.packets_covered = 100;
  digest.raw_bytes_covered = 53600;
  return digest;
}

TEST(DigestCodecTest, CodecNamesAndKnownIds) {
  EXPECT_STREQ(DigestCodecName(DigestCodecId::kRaw), "raw");
  EXPECT_STREQ(DigestCodecName(DigestCodecId::kSparse), "sparse");
  EXPECT_TRUE(KnownDigestCodecId(0));
  EXPECT_TRUE(KnownDigestCodecId(1));
  for (int raw = 2; raw < 256; ++raw) {
    EXPECT_FALSE(KnownDigestCodecId(static_cast<std::uint8_t>(raw)));
  }
}

// Both codecs round-trip to the identical digest across the whole fill
// range, including all-zero, single-bit, near-full, and ragged-tail rows.
TEST(DigestCodecTest, RoundTripAcrossFillFractions) {
  Rng rng(7);
  const std::size_t sizes[] = {1, 63, 64, 65, 512, 1000, 4096};
  const double fills[] = {0.0, 0.001, 0.01, 0.05, 0.25, 0.5, 0.9, 1.0};
  for (const std::size_t row_bits : sizes) {
    for (const double fill : fills) {
      const std::size_t ones =
          static_cast<std::size_t>(fill * static_cast<double>(row_bits));
      const Digest original = MakeDigest(row_bits, ones, &rng);
      for (const DigestCodecId codec :
           {DigestCodecId::kRaw, DigestCodecId::kSparse}) {
        const std::vector<std::uint8_t> bytes =
            EncodeDigestPayload(original, codec);
        Digest decoded;
        const Status status = DecodeDigestPayload(bytes, codec, &decoded);
        ASSERT_TRUE(status.ok()) << "bits=" << row_bits << " fill=" << fill
                                 << " codec=" << DigestCodecName(codec) << ": "
                                 << status.ToString();
        EXPECT_TRUE(decoded == original)
            << "bits=" << row_bits << " fill=" << fill
            << " codec=" << DigestCodecName(codec);
      }
    }
  }
}

// Raw and sparse payloads of the same digest are decode-equivalent: the
// sparse image may differ on the wire but never in meaning.
TEST(DigestCodecTest, RawVsSparseDecodeEquivalenceOracle) {
  Rng rng(21);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t row_bits = 1 + rng.UniformInt(3000);
    const std::size_t ones = rng.UniformInt(row_bits + 1);
    const Digest original = MakeDigest(row_bits, ones, &rng);
    Digest from_raw;
    Digest from_sparse;
    ASSERT_TRUE(DecodeDigestPayload(EncodeDigestPayload(original,
                                                        DigestCodecId::kRaw),
                                    DigestCodecId::kRaw, &from_raw)
                    .ok());
    ASSERT_TRUE(
        DecodeDigestPayload(EncodeDigestPayload(original,
                                                DigestCodecId::kSparse),
                            DigestCodecId::kSparse, &from_sparse)
            .ok());
    EXPECT_TRUE(from_raw == from_sparse) << "trial " << trial;
    EXPECT_TRUE(from_raw == original) << "trial " << trial;
  }
}

// The sparse codec never loses to raw by more than the per-row tag (which
// both codecs pay), and its size grows monotonically in fill until it hands
// over to the dense fallback — after which it is pinned at the raw size.
TEST(DigestCodecTest, SparseNeverBeatenByRawAndMonotoneUntilDense) {
  const std::size_t row_bits = 4096;
  const std::size_t raw_size =
      EncodeDigestPayload(MakeDigest(row_bits, 0), DigestCodecId::kRaw).size();
  EXPECT_EQ(raw_size, EncodedPayloadSizeBytes(MakeDigest(row_bits, 0),
                                              DigestCodecId::kRaw));
  std::size_t prev = 0;
  bool dense_reached = false;
  for (std::size_t ones = 0; ones <= row_bits; ones += 64) {
    const Digest digest = MakeDigest(row_bits, ones);
    const std::size_t sparse_size =
        EncodeDigestPayload(digest, DigestCodecId::kSparse).size();
    EXPECT_LE(sparse_size, raw_size) << "ones=" << ones;
    EXPECT_EQ(EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw), raw_size);
    if (dense_reached) {
      EXPECT_EQ(sparse_size, raw_size) << "ones=" << ones;
    } else if (sparse_size == raw_size && ones > row_bits / 2) {
      dense_reached = true;
    } else if (ones > 0) {
      // Evenly-spread fills: more set bits never shrink the sparse image.
      EXPECT_GE(sparse_size, prev) << "ones=" << ones;
    }
    prev = sparse_size;
  }
  EXPECT_TRUE(dense_reached) << "full rows must fall back to dense";
}

// The acceptance target from EXPERIMENTS.md: at most 1% fill the sparse
// codec is at least a 4x reduction over the dense wire size.
TEST(DigestCodecTest, SparseAtLeastFourXAtOnePercentFill) {
  Rng rng(4);
  for (const std::size_t row_bits : {8192u, 65536u, 1u << 20}) {
    const std::size_t ones = row_bits / 100;
    const Digest digest = MakeDigest(row_bits, ones, &rng);
    const std::size_t raw_size =
        EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw);
    const std::size_t sparse_size =
        EncodeDigestPayload(digest, DigestCodecId::kSparse).size();
    EXPECT_GE(raw_size, 4 * sparse_size) << "bits=" << row_bits;
  }
}

// Strictness: a payload that declares kRaw but carries a compressed row is
// malformed, even though the bytes are a perfectly valid kSparse payload.
TEST(DigestCodecTest, RawCodecRejectsCompressedRows) {
  Rng rng(11);
  const Digest sparse_digest = MakeDigest(4096, 10, &rng);
  const std::vector<std::uint8_t> sparse_bytes =
      EncodeDigestPayload(sparse_digest, DigestCodecId::kSparse);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(sparse_bytes, DigestCodecId::kSparse, &out).ok());
  const Status status =
      DecodeDigestPayload(sparse_bytes, DigestCodecId::kRaw, &out);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

// A raw payload is all-dense, so it happens to be a valid sparse payload
// too — the degenerate overlap the negotiation relies on (auto mode can
// pick raw and the receiver may still be told sparse... it is not: the
// codec travels in the frame. This checks the *decoder* contract only).
TEST(DigestCodecTest, RawPayloadDecodesUnderSparseCodec) {
  Rng rng(13);
  const Digest digest = MakeDigest(4096, 2000, &rng);
  const std::vector<std::uint8_t> raw_bytes =
      EncodeDigestPayload(digest, DigestCodecId::kRaw);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(raw_bytes, DigestCodecId::kSparse, &out).ok());
  EXPECT_TRUE(out == digest);
}

// Auto negotiation: near-empty digests ship sparse, dense digests ship raw,
// and the payload always matches the returned codec.
TEST(DigestCodecTest, AutoNegotiationPicksThePayingCodec) {
  Rng rng(17);
  std::vector<std::uint8_t> payload;
  const Digest sparse_case = MakeDigest(8192, 40, &rng);
  EXPECT_EQ(EncodeDigestPayloadAuto(sparse_case, &payload),
            DigestCodecId::kSparse);
  Digest out;
  ASSERT_TRUE(
      DecodeDigestPayload(payload, DigestCodecId::kSparse, &out).ok());
  EXPECT_TRUE(out == sparse_case);

  const Digest dense_case = MakeDigest(8192, 4000, &rng);
  EXPECT_EQ(EncodeDigestPayloadAuto(dense_case, &payload), DigestCodecId::kRaw);
  ASSERT_TRUE(DecodeDigestPayload(payload, DigestCodecId::kRaw, &out).ok());
  EXPECT_TRUE(out == dense_case);
  EXPECT_EQ(payload.size(),
            EncodedPayloadSizeBytes(dense_case, DigestCodecId::kRaw));
}

// Digest::Encode is the kSparse payload, byte for byte — the digest plane
// and the on-disk format cannot drift apart.
TEST(DigestCodecTest, DigestEncodeIsTheSparsePayload) {
  Rng rng(19);
  for (const std::size_t ones : {0u, 5u, 300u, 4096u}) {
    const Digest digest = MakeDigest(4096, ones, &rng);
    EXPECT_EQ(digest.Encode(),
              EncodeDigestPayload(digest, DigestCodecId::kSparse));
  }
}

// --- Row-level strictness -------------------------------------------------

// Encodes `row` with kSparse, returning (tag, bytes-after-tag position).
std::vector<std::uint8_t> EncodeOneRow(const BitVector& row,
                                       DigestCodecId codec) {
  std::vector<std::uint8_t> out;
  EncodeRow(row, codec, &out);
  return out;
}

TEST(DigestCodecTest, DenseRowTailGarbageRejected) {
  BitVector row(70);  // 64 < bits < 128: the last word has 58 dead bits.
  row.Set(0);
  row.Set(69);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kRaw);
  ASSERT_EQ(bytes.size(), 1 + 2 * 8);
  ASSERT_EQ(bytes[0], RowWire::kDense);
  std::size_t pos = 0;
  BitVector decoded(70);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Set a bit past size() in the trailing word.
  bytes.back() |= 0x80;
  pos = 0;
  const Status status = DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

TEST(DigestCodecTest, TruncatedDenseRowRejected) {
  // One byte and seven bytes short of the last word: the length check must
  // refuse the row before any word is copied.
  BitVector row(200);
  for (std::size_t i = 0; i < 200; i += 3) row.Set(i);
  const std::vector<std::uint8_t> bytes =
      EncodeOneRow(row, DigestCodecId::kRaw);
  ASSERT_EQ(bytes.size(), 1 + 4 * 8);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7}}) {
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.end() - static_cast<std::ptrdiff_t>(cut));
    std::size_t pos = 0;
    BitVector decoded(200);
    EXPECT_EQ(DecodeRow(truncated, &pos, DigestCodecId::kRaw, &decoded).code(),
              Status::Code::kCorruption)
        << "cut=" << cut;
  }
}

TEST(DigestCodecTest, DenseRowTailGarbageRejectedAtEveryWidth) {
  // A clean row of each width decodes; the same bytes with the first bit
  // past size() set are refused. Width 2^20 is a whole number of words, so
  // there is no tail to dirty and only the clean decode is checked; 2^20 + 1
  // dirties the tail of a row that long.
  Rng rng(23);
  for (const std::size_t bits :
       {std::size_t{1}, std::size_t{63}, std::size_t{65}, std::size_t{1} << 20,
        (std::size_t{1} << 20) + 1}) {
    BitVector row(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.UniformInt(2) == 1) row.Set(i);
    }
    std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kRaw);
    ASSERT_EQ(bytes.size(), 1 + row.num_words() * 8) << "bits=" << bits;
    std::size_t pos = 0;
    BitVector decoded(bits);
    ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded).ok())
        << "bits=" << bits;
    EXPECT_TRUE(decoded == row) << "bits=" << bits;
    EXPECT_EQ(pos, bytes.size()) << "bits=" << bits;
    if (bits % 64 == 0) continue;
    // Bit `bits` of the row is bit (bits % 8) of payload byte bits / 8.
    bytes[1 + bits / 8] |= static_cast<std::uint8_t>(1u << (bits % 8));
    pos = 0;
    EXPECT_EQ(DecodeRow(bytes, &pos, DigestCodecId::kRaw, &decoded).code(),
              Status::Code::kCorruption)
        << "bits=" << bits;
  }
}

TEST(DigestCodecTest, SparseRowOutOfRangeIndexRejected) {
  BitVector row(100);
  row.Set(99);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kSparse);
  ASSERT_EQ(bytes[0], RowWire::kSparse);
  std::size_t pos = 0;
  BitVector decoded(100);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Decode the same bytes into a *smaller* row: index 99 is out of range.
  pos = 0;
  BitVector small(50);
  const Status status =
      DecodeRow(bytes, &pos, DigestCodecId::kSparse, &small);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

TEST(DigestCodecTest, RleRowMalformedTokensRejected) {
  // A long zero run with a literal island — the shape RLE wins on.
  BitVector row(4096);
  for (std::size_t i = 2048; i < 2048 + 64; ++i) row.Set(i);
  std::vector<std::uint8_t> bytes = EncodeOneRow(row, DigestCodecId::kSparse);
  ASSERT_EQ(bytes[0], RowWire::kRle);
  std::size_t pos = 0;
  BitVector decoded(4096);
  ASSERT_TRUE(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == row);

  // Hand-built malformed variants.
  const auto expect_reject = [](const std::vector<std::uint8_t>& in) {
    std::size_t p = 0;
    BitVector out(128);  // 2 words.
    EXPECT_EQ(DecodeRow(in, &p, DigestCodecId::kSparse, &out).code(),
              Status::Code::kCorruption);
  };
  // Empty token: zeros == 0 && literals == 0 never covers ground.
  expect_reject({RowWire::kRle, 0, 0});
  // Run overflowing the row: 3 zero words in a 2-word row.
  expect_reject({RowWire::kRle, 3, 0});
  // Token stream ending short of the row: 1 zero word covers 1 of 2.
  expect_reject({RowWire::kRle, 1, 0});
  // Literal count claiming more words than the encoding carries.
  expect_reject({RowWire::kRle, 1, 1});
}

TEST(DigestCodecTest, UnknownRowTagRejected) {
  std::size_t pos = 0;
  BitVector out(64);
  const std::vector<std::uint8_t> bytes = {3, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(DecodeRow(bytes, &pos, DigestCodecId::kSparse, &out).code(),
            Status::Code::kCorruption);
}

// Multi-row unaligned digests mix row encodings freely under kSparse: each
// row independently picks its cheapest form.
TEST(DigestCodecTest, MixedRowEncodingsInOnePayload) {
  Rng rng(23);
  Digest digest;
  digest.kind = DigestKind::kUnaligned;
  digest.router_id = 8;
  digest.epoch_id = 2;
  digest.num_groups = 3;
  digest.arrays_per_group = 1;
  BitVector empty(1024);                       // RLE or sparse.
  BitVector dense(1024);                       // Dense fallback.
  for (std::size_t i = 0; i < 1024; ++i) dense.Set(i);
  BitVector sparse(1024);                      // A few scattered bits.
  for (std::size_t k = 0; k < 6; ++k) sparse.Set(rng.UniformInt(1024));
  digest.rows = {empty, dense, sparse};
  digest.packets_covered = 1;
  digest.raw_bytes_covered = 1;

  const std::vector<std::uint8_t> bytes =
      EncodeDigestPayload(digest, DigestCodecId::kSparse);
  Digest decoded;
  ASSERT_TRUE(
      DecodeDigestPayload(bytes, DigestCodecId::kSparse, &decoded).ok());
  EXPECT_TRUE(decoded == digest);
  EXPECT_LT(bytes.size(),
            EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw));
}

// One row of a seeded sweep: uniform Bernoulli fill, or 50%-full islands
// of words in an otherwise empty row (the shape RLE wins on).
BitVector SweepRow(std::size_t row_bits, Rng* rng) {
  static constexpr double kFills[] = {0.0,  0.001, 0.01, 0.05,
                                      0.25, 0.5,   1.0};
  BitVector row(row_bits);
  if (row_bits == 0) return row;
  if (rng->Bernoulli(0.3)) {
    const std::size_t islands = 1 + rng->UniformInt(4);
    for (std::size_t k = 0; k < islands; ++k) {
      const std::size_t start = rng->UniformInt(row_bits);
      const std::size_t len = 1 + rng->UniformInt(256);
      for (std::size_t i = start; i < row_bits && i < start + len; ++i) {
        if (rng->Bernoulli(0.5)) row.Set(i);
      }
    }
    return row;
  }
  const double fill = kFills[rng->UniformInt(std::size(kFills))];
  for (std::size_t i = 0; i < row_bits; ++i) {
    if (rng->Bernoulli(fill)) row.Set(i);
  }
  return row;
}

// Aligned or unaligned digest of random shape, ragged row widths included.
Digest SweepDigest(Rng* rng) {
  Digest digest;
  digest.router_id = static_cast<std::uint32_t>(rng->UniformInt(1000));
  digest.epoch_id = rng->UniformInt(1u << 20);
  digest.packets_covered = rng->UniformInt(1u << 16);
  digest.raw_bytes_covered = rng->UniformInt(1u << 30);
  const std::size_t row_bits = rng->UniformInt(5000);
  if (rng->Bernoulli(0.5)) {
    digest.kind = DigestKind::kAligned;
    digest.rows.push_back(SweepRow(row_bits, rng));
  } else {
    digest.kind = DigestKind::kUnaligned;
    digest.num_groups = 1 + static_cast<std::uint32_t>(rng->UniformInt(3));
    digest.arrays_per_group =
        1 + static_cast<std::uint32_t>(rng->UniformInt(3));
    for (std::uint32_t r = 0; r < digest.num_groups * digest.arrays_per_group;
         ++r) {
      digest.rows.push_back(SweepRow(row_bits, rng));
    }
  }
  return digest;
}

// Locks every encoder output byte for byte: the chained Hash64 below was
// recorded from the encoder that built all three row candidates and kept
// the smallest, so any drift in tag choice, body layout, negotiation or
// checksum changes it. The sweep must exercise every row form.
TEST(DigestCodecTest, EncoderOutputPinnedAcrossSeededSweep) {
  Rng rng(2006);
  std::uint64_t chain = 0;
  std::size_t tags[3] = {0, 0, 0};
  std::size_t negotiated[2] = {0, 0};
  for (int trial = 0; trial < 400; ++trial) {
    const Digest digest = SweepDigest(&rng);
    const std::vector<std::uint8_t> sparse = digest.Encode();
    ASSERT_EQ(sparse.size(), digest.EncodedSizeBytes()) << "trial " << trial;
    chain = Hash64(sparse.data(), sparse.size(), chain);
    const std::vector<std::uint8_t> raw =
        EncodeDigestPayload(digest, DigestCodecId::kRaw);
    ASSERT_EQ(raw.size(), EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw))
        << "trial " << trial;
    chain = Hash64(raw.data(), raw.size(), chain);
    std::vector<std::uint8_t> automatic;
    const DigestCodecId codec = EncodeDigestPayloadAuto(digest, &automatic);
    ++negotiated[static_cast<std::size_t>(codec)];
    chain = Hash64(automatic.data(), automatic.size(),
                   chain ^ static_cast<std::uint64_t>(codec));
    for (const BitVector& row : digest.rows) {
      ++tags[EncodeOneRow(row, DigestCodecId::kSparse).front()];
    }
  }
  EXPECT_GT(tags[RowWire::kDense], 0u);
  EXPECT_GT(tags[RowWire::kSparse], 0u);
  EXPECT_GT(tags[RowWire::kRle], 0u);
  EXPECT_GT(negotiated[static_cast<std::size_t>(DigestCodecId::kRaw)], 0u);
  EXPECT_GT(negotiated[static_cast<std::size_t>(DigestCodecId::kSparse)], 0u);
  EXPECT_EQ(chain, 0x66347f1a1cc3a320ULL);
}

// Rows built to land exactly on a tie between two candidate sizes: the tag
// must follow the tie-break rule (sparse only when strictly smaller than
// dense, RLE only when strictly smaller than both) and the size accounting
// must agree with the bytes.
TEST(DigestCodecTest, TieRowsFollowTheTieBreakRule) {
  struct TieCase {
    std::size_t row_bits;
    std::size_t ones;  // Bits 0..ones-1 set (one-byte gaps).
    std::uint8_t tag;
    std::size_t encoded_bytes;  // Tag included.
  };
  const TieCase cases[] = {
      // 1 word: dense 8; sparse 1 + ones; RLE (0,1)+8 = 10.
      {64, 6, RowWire::kSparse, 1 + 7},   // sparse 7 < dense 8.
      {64, 7, RowWire::kDense, 1 + 8},    // sparse 8 == dense 8.
      // 4 words, first non-zero: dense 32; RLE (0,1)+8 + (3,0) = 12.
      {256, 11, RowWire::kSparse, 1 + 12},  // sparse 12 == RLE 12.
      {256, 12, RowWire::kRle, 1 + 12},     // RLE 12 < sparse 13.
      // 0 words: dense 0, sparse 1 (the count), RLE 0 == dense.
      {0, 0, RowWire::kDense, 1},
  };
  for (const TieCase& tc : cases) {
    BitVector row(tc.row_bits);
    for (std::size_t i = 0; i < tc.ones; ++i) row.Set(i);
    const std::vector<std::uint8_t> bytes =
        EncodeOneRow(row, DigestCodecId::kSparse);
    EXPECT_EQ(bytes.front(), tc.tag)
        << "bits=" << tc.row_bits << " ones=" << tc.ones;
    EXPECT_EQ(bytes.size(), tc.encoded_bytes)
        << "bits=" << tc.row_bits << " ones=" << tc.ones;
    Digest digest;
    digest.rows.push_back(row);
    EXPECT_EQ(digest.EncodedSizeBytes(), digest.Encode().size())
        << "bits=" << tc.row_bits << " ones=" << tc.ones;
    std::size_t pos = 0;
    BitVector decoded(tc.row_bits);
    ASSERT_TRUE(
        DecodeRow(bytes, &pos, DigestCodecId::kSparse, &decoded).ok());
    EXPECT_TRUE(decoded == row);
  }
}

}  // namespace
}  // namespace dcs
