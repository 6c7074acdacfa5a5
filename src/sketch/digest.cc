#include "sketch/digest.h"

#include "common/hash.h"
#include "common/logging.h"
#include "sketch/digest_codec.h"

namespace dcs {

// The payload serialization itself (header layout, adaptive row encodings,
// structural bounds, checksum) lives in sketch/digest_codec.cc, shared with
// the network frame plane. A digest's native storage format is the kSparse
// codec — the historical adaptive encoding.

std::vector<std::uint8_t> Digest::Encode() const {
  return EncodeDigestPayload(*this, DigestCodecId::kSparse);
}

Status Digest::Decode(const std::vector<std::uint8_t>& bytes, Digest* out) {
  return DecodeDigestPayload(bytes, DigestCodecId::kSparse, out);
}

std::size_t Digest::EncodedSizeBytes() const {
  return EncodedPayloadSizeBytes(*this, DigestCodecId::kSparse);
}

double Digest::CompressionFactor() const {
  if (raw_bytes_covered == 0) return 0.0;
  const std::size_t encoded = EncodedSizeBytes();
  if (encoded == 0) return 0.0;
  return static_cast<double>(raw_bytes_covered) /
         static_cast<double>(encoded);
}

void Digest::ResealChecksum(std::vector<std::uint8_t>* bytes) {
  DCS_CHECK(bytes != nullptr);
  if (bytes->size() < DigestWireLayout::kChecksumBytes) return;
  const std::uint64_t checksum =
      Hash64(bytes->data(), bytes->size() - DigestWireLayout::kChecksumBytes,
             /*seed=*/DigestWireLayout::kMagic);
  std::uint8_t* tail =
      bytes->data() + bytes->size() - DigestWireLayout::kChecksumBytes;
  for (std::size_t i = 0; i < DigestWireLayout::kChecksumBytes; ++i) {
    tail[i] = static_cast<std::uint8_t>(checksum >> (8 * i));
  }
}

}  // namespace dcs
