#ifndef DCS_SKETCH_DIGEST_CODEC_H_
#define DCS_SKETCH_DIGEST_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "common/status.h"
#include "sketch/digest.h"

namespace dcs {

/// Payload codec negotiated per frame by the distributed digest plane
/// (docs/DISTRIBUTED.md). The codec is an *encoder-side* contract: both
/// codecs serialize the identical header (DigestWireLayout) and trailing
/// checksum, and differ only in how bitmap rows are written. Decoding is
/// strict — a payload that declares kRaw but carries compressed rows is
/// malformed and must be rejected, so a lying codec byte cannot smuggle a
/// different parser onto the hot path.
enum class DigestCodecId : std::uint8_t {
  /// Every row stored dense (raw 64-bit words). Trivially correct, fixed
  /// size, and the oracle the sparse codec is differentially tested
  /// against.
  kRaw = 0,
  /// Per-row smallest of {dense words, varint-delta set-bit indices,
  /// zero-run RLE over words}. Near-empty early-epoch bitmaps ship at a
  /// small fraction of their dense size (>= 4x at <= 1% fill, see
  /// EXPERIMENTS.md); rows past the break-even point fall back to dense.
  kSparse = 1,
};

/// "raw" / "sparse" for logs and metrics.
const char* DigestCodecName(DigestCodecId codec);

/// True when `raw` is a known DigestCodecId value (frame validation).
bool KnownDigestCodecId(std::uint8_t raw);

/// Per-row encoding tags shared by every payload codec (and by the digest's
/// own storage format — Digest::Encode emits kSparse payloads).
struct RowWire {
  static constexpr std::uint8_t kDense = 0;   ///< row words verbatim.
  static constexpr std::uint8_t kSparse = 1;  ///< varint count + index gaps.
  static constexpr std::uint8_t kRle = 2;     ///< (zero-run, literal-run)*.
};

/// Serializes `digest` as a self-contained payload (header + rows +
/// checksum) with the given codec. The output of both codecs decodes to the
/// identical Digest.
[[nodiscard]] std::vector<std::uint8_t> EncodeDigestPayload(
    const Digest& digest, DigestCodecId codec);

/// Parses a payload produced by EncodeDigestPayload with the same codec.
/// Validates the checksum, the structural header bounds (DigestWireLayout —
/// a resealed lying header must not drive allocation), and that every row
/// uses only encodings the declared codec is allowed to emit (kRaw => dense
/// rows only).
[[nodiscard]] Status DecodeDigestPayload(const std::vector<std::uint8_t>& bytes,
                                         DigestCodecId codec, Digest* out);

/// The exact size EncodeDigestPayload(digest, codec) would produce, without
/// encoding: per row one word scan (the RLE size) and a popcount, plus a
/// varint-gap walk only for rows sparse enough that the set-bit form could
/// win. kRaw gives the dense wire size the sparse codec's savings are
/// measured against.
[[nodiscard]] std::size_t EncodedPayloadSizeBytes(const Digest& digest,
                                                  DigestCodecId codec);

/// Per-frame negotiation: keeps kSparse only when it saves at least 1/16 of
/// the dense size (otherwise the fixed-size raw form wins — its decode path
/// is a straight word copy). Decides from the two payload sizes, encodes
/// once with the winner, and returns the chosen codec with *out filled.
DigestCodecId EncodeDigestPayloadAuto(const Digest& digest,
                                      std::vector<std::uint8_t>* out);

/// Appends one row with the codec's row policy: kRaw always writes the
/// dense form; kSparse writes the smallest of the three encodings (ties
/// prefer sparse over RLE, dense over both, so pre-RLE encodings are
/// reproduced byte-for-byte). The form is chosen from computed sizes and
/// only its body is built.
void EncodeRow(const BitVector& row, DigestCodecId codec,
               std::vector<std::uint8_t>* out);

/// Decodes one row written by EncodeRow into `row` (which carries the
/// expected bit count). Rejects tags outside the codec's policy, indices or
/// runs beyond the row bounds, and dense/RLE words with garbage past the
/// last valid bit.
[[nodiscard]] Status DecodeRow(const std::vector<std::uint8_t>& in,
                               std::size_t* pos, DigestCodecId codec,
                               BitVector* row);

}  // namespace dcs

#endif  // DCS_SKETCH_DIGEST_CODEC_H_
