#ifndef DCS_SKETCH_DIGEST_H_
#define DCS_SKETCH_DIGEST_H_

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "common/status.h"

namespace dcs {

/// Which streaming module produced a digest.
enum class DigestKind : std::uint8_t {
  kAligned = 1,    ///< One hashed-bitmap row (Section III).
  kUnaligned = 2,  ///< num_groups * arrays_per_group rows (Section IV).
};

/// Fixed little-endian byte offsets of the encoded digest header. The
/// fault-injection harness (src/testing/fault_injector.h) patches these
/// fields directly to simulate routers that lie about their metadata, and
/// the decoder's structural validation is tested against every one of them.
struct DigestWireLayout {
  /// "DCSE" — also the Hash64 checksum seed.
  static constexpr std::uint32_t kMagic = 0x44435345;
  static constexpr std::size_t kMagicOffset = 0;            ///< u32
  static constexpr std::size_t kRouterIdOffset = 4;         ///< u32
  static constexpr std::size_t kEpochIdOffset = 8;          ///< u64
  static constexpr std::size_t kKindOffset = 16;            ///< u32
  static constexpr std::size_t kNumGroupsOffset = 20;       ///< u32
  static constexpr std::size_t kArraysPerGroupOffset = 24;  ///< u32
  static constexpr std::size_t kNumRowsOffset = 28;         ///< u64
  static constexpr std::size_t kRowBitsOffset = 36;         ///< u64
  static constexpr std::size_t kPacketsOffset = 44;         ///< u64
  static constexpr std::size_t kRawBytesOffset = 52;        ///< u64
  /// Rows start here; the trailing 8 bytes are the checksum.
  static constexpr std::size_t kHeaderBytes = 60;
  static constexpr std::size_t kChecksumBytes = 8;

  /// Decode refuses headers whose claimed dimensions could not have come
  /// from a real deployment, *before* allocating rows — the checksum is not
  /// cryptographic, so a corrupted or hostile sender can reseal a lying
  /// header and must not be able to drive the analysis center out of
  /// memory. 2^28 bits is 64x the paper's 4 Mbit OC-48 bitmap.
  static constexpr std::uint64_t kMaxRowBits = 1ULL << 28;
  /// Upper bound on num_rows * allocated bytes per row (2 GiB).
  static constexpr std::uint64_t kMaxTotalRowBytes = 1ULL << 31;
};

/// \brief The message a router ships to the analysis center each epoch.
///
/// Carries the bitmap rows plus enough metadata for the center to stack them
/// into the analysis matrix, and raw-traffic accounting to audit the paper's
/// >=1000x reduction claim. Encoding is little-endian with a trailing
/// checksum.
struct Digest {
  std::uint32_t router_id = 0;
  std::uint64_t epoch_id = 0;
  DigestKind kind = DigestKind::kAligned;
  /// Unaligned layout; 1 x 1 for aligned digests.
  std::uint32_t num_groups = 1;
  std::uint32_t arrays_per_group = 1;
  /// Rows, group-major for unaligned digests.
  std::vector<BitVector> rows;
  /// Number of packets the sketch recorded this epoch.
  std::uint64_t packets_covered = 0;
  /// On-the-wire bytes of the traffic the sketch observed this epoch.
  std::uint64_t raw_bytes_covered = 0;

  /// Serializes to bytes with the adaptive (kSparse) codec from
  /// sketch/digest_codec.h: each row is stored as the smallest of dense
  /// words, varint-delta set-bit indices, or zero-run RLE — a quarter-full
  /// epoch's bitmap ships at a fraction of its dense size while half-full
  /// rows stay dense.
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;

  /// Parses a digest previously produced by Encode. Validates structure and
  /// checksum.
  [[nodiscard]] static Status Decode(const std::vector<std::uint8_t>& bytes,
                                     Digest* out);

  /// Size of the encoded form (equals Encode().size()), computed from the
  /// rows without encoding them (EncodedPayloadSizeBytes, kSparse): cheap
  /// enough for per-digest byte accounting on the ingest path.
  [[nodiscard]] std::size_t EncodedSizeBytes() const;

  /// raw_bytes_covered / encoded size — the paper's compression factor.
  /// Returns 0 for the pathological cases (nothing covered, or an empty
  /// encoding) instead of dividing by zero.
  [[nodiscard]] double CompressionFactor() const;

  /// Recomputes and overwrites the trailing checksum of an encoded digest
  /// in place (no-op for buffers shorter than the checksum). The checksum
  /// is an integrity check, not an authenticator: anyone can reseal a
  /// modified message. The fault-injection harness uses this to craft
  /// digests that pass the integrity check but lie in their header fields,
  /// which is exactly what the ingestion layer's structural validation must
  /// survive.
  static void ResealChecksum(std::vector<std::uint8_t>* bytes);

  /// Field-by-field equality, rows included (used by the round-trip
  /// property tests).
  friend bool operator==(const Digest&, const Digest&) = default;
};

}  // namespace dcs

#endif  // DCS_SKETCH_DIGEST_H_
