#include "sketch/digest_codec.h"

#include <bit>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

void AppendVarint(std::vector<std::uint8_t>* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

// Bytes AppendVarint writes for v: one per started group of 7 bits.
std::size_t VarintBytes(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

bool TakeU32(const std::vector<std::uint8_t>& in, std::size_t* pos,
             std::uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(in[*pos + i]) << (8 * i);
  }
  *pos += 4;
  return true;
}

bool TakeU64(const std::vector<std::uint8_t>& in, std::size_t* pos,
             std::uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(in[*pos + i]) << (8 * i);
  }
  *pos += 8;
  return true;
}

// Reads `count` little-endian words into words: one length check, then a
// memcpy on little-endian hosts (AppendWords' inverse).
bool TakeWords(const std::vector<std::uint8_t>& in, std::size_t* pos,
               std::uint64_t* words, std::size_t count) {
  if (*pos > in.size() || count > (in.size() - *pos) / 8) return false;
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(words, in.data() + *pos, count * 8);
    *pos += count * 8;
  } else {
    for (std::size_t i = 0; i < count; ++i) TakeU64(in, pos, &words[i]);
  }
  return true;
}

bool TakeVarint(const std::vector<std::uint8_t>& in, std::size_t* pos,
                std::uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= in.size()) return false;
    const std::uint8_t byte = in[(*pos)++];
    *v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // Over-long varint.
}

void AppendWords(std::vector<std::uint8_t>* out, const std::uint64_t* words,
                 std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t at = out->size();
    out->resize(at + count * 8);
    if (count != 0) std::memcpy(out->data() + at, words, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) AppendU64(out, words[i]);
  }
}

// The varint-delta set-bit form (RowWire::kSparse), without its tag byte:
// the set-bit count, then each index as a gap from the previous one (the
// first gap is the index itself).
void AppendSparseBody(const BitVector& row, std::size_t ones,
                      std::vector<std::uint8_t>* out) {
  AppendVarint(out, ones);
  std::size_t prev = 0;
  for (std::size_t w = 0; w < row.num_words(); ++w) {
    for (std::uint64_t bits = row.words()[w]; bits != 0; bits &= bits - 1) {
      const std::size_t index =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      AppendVarint(out, index - prev);
      prev = index;
    }
  }
}

// The zero-run RLE form (RowWire::kRle) is a sequence of (varint zero-word
// run, varint literal-word run, literal words) tokens covering every
// backing word exactly once. A canonical encoder splits on every zero word
// — a 2-byte token is always cheaper than an 8-byte zero literal — so
// literal runs contain only non-zero words. Calls token(zeros,
// literals_begin, literals) for each token in order; the encoder and the
// size pass share this walk.
template <typename TokenFn>
void ForEachRleToken(const BitVector& row, TokenFn token) {
  const std::uint64_t* words = row.words();
  const std::size_t num_words = row.num_words();
  std::size_t w = 0;
  while (w < num_words) {
    const std::size_t zeros_begin = w;
    while (w < num_words && words[w] == 0) ++w;
    const std::size_t literals_begin = w;
    while (w < num_words && words[w] != 0) ++w;
    token(literals_begin - zeros_begin, literals_begin, w - literals_begin);
  }
}

// The RLE body, without its tag byte.
void AppendRleBody(const BitVector& row, std::vector<std::uint8_t>* out) {
  ForEachRleToken(row, [&row, out](std::size_t zeros,
                                   std::size_t literals_begin,
                                   std::size_t literals) {
    AppendVarint(out, zeros);
    AppendVarint(out, literals);
    AppendWords(out, row.words() + literals_begin, literals);
  });
}

std::size_t RleBodyBytes(const BitVector& row) {
  std::size_t bytes = 0;
  ForEachRleToken(row, [&bytes](std::size_t zeros, std::size_t /*begin*/,
                                std::size_t literals) {
    bytes += VarintBytes(zeros) + VarintBytes(literals) + 8 * literals;
  });
  return bytes;
}

// AppendSparseBody's output size in O(words): a gap between two bits of one
// word is under 64, so one varint byte, and only the gap into each word's
// first set bit can be longer.
std::size_t SparseBodyBytes(const BitVector& row, std::size_t ones) {
  std::size_t bytes = VarintBytes(ones) + ones;
  std::size_t prev = 0;
  for (std::size_t w = 0; w < row.num_words(); ++w) {
    const std::uint64_t word = row.words()[w];
    if (word == 0) continue;
    const std::size_t base = w << 6;
    const std::size_t first =
        base + static_cast<std::size_t>(std::countr_zero(word));
    bytes += VarintBytes(first - prev) - 1;
    prev = base + 63 - static_cast<std::size_t>(std::countl_zero(word));
  }
  return bytes;
}

// How a codec ships one row: the chosen tag and its wire size, tag byte
// included. kSparse takes the smallest of the three forms; ties keep
// pre-RLE encodings stable: sparse only when strictly smaller than dense
// (the historical rule), RLE only when strictly smaller than both.
struct RowPlan {
  std::uint8_t tag = RowWire::kDense;
  std::size_t bytes = 0;
  std::size_t ones = 0;  ///< Set bits (kSparse codec only).
};

RowPlan PlanRow(const BitVector& row, DigestCodecId codec) {
  const std::size_t dense = row.num_words() * 8;
  if (codec == DigestCodecId::kRaw) return {RowWire::kDense, 1 + dense, 0};
  const std::size_t rle = RleBodyBytes(row);
  const std::size_t ones = row.CountOnes();
  // Every gap costs at least one byte. Once that floor reaches the dense
  // size, sparse can beat neither dense nor (since rle < dense <= sparse
  // whenever RLE wins on dense) RLE, so its exact size is never needed —
  // the common case for the steady-state quarter- to half-full bitmaps.
  std::size_t sparse = VarintBytes(ones) + ones;
  if (sparse < dense) sparse = SparseBodyBytes(row, ones);
  if (rle < dense && rle < sparse) return {RowWire::kRle, 1 + rle, ones};
  if (sparse < dense) return {RowWire::kSparse, 1 + sparse, ones};
  return {RowWire::kDense, 1 + dense, ones};
}

// Bits of the last backing word that lie beyond size(); they must be zero
// in any well-formed row (BitVector maintains the invariant, and the
// decoder enforces it so a hostile dense/RLE payload cannot smuggle
// out-of-range bits into weight counts).
bool TailBitsClean(const BitVector& row) {
  const std::size_t tail = row.size() % 64;
  if (tail == 0 || row.num_words() == 0) return true;
  const std::uint64_t mask = ~((1ULL << tail) - 1);
  return (row.words()[row.num_words() - 1] & mask) == 0;
}

Status DecodeDenseRow(const std::vector<std::uint8_t>& in, std::size_t* pos,
                      BitVector* row) {
  if (!TakeWords(in, pos, row->mutable_words(), row->num_words())) {
    return Status::Corruption("truncated dense row");
  }
  if (!TailBitsClean(*row)) {
    return Status::Corruption("dense row tail garbage");
  }
  return Status::Ok();
}

Status DecodeSparseRow(const std::vector<std::uint8_t>& in, std::size_t* pos,
                       BitVector* row) {
  std::uint64_t count = 0;
  if (!TakeVarint(in, pos, &count)) {
    return Status::Corruption("truncated sparse count");
  }
  if (count > row->size()) return Status::Corruption("sparse count too big");
  std::uint64_t index = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t gap = 0;
    if (!TakeVarint(in, pos, &gap)) {
      return Status::Corruption("truncated sparse row");
    }
    // After the first index, gaps must step strictly forward without
    // wrapping: gap == 0 is a duplicate index and a gap past size() would
    // overflow index + gap back into range, both only producible by a
    // non-canonical (corrupt) payload.
    if (!first && (gap == 0 || gap > row->size() - index)) {
      return Status::Corruption("sparse gap out of range");
    }
    index = first ? gap : index + gap;
    first = false;
    if (index >= row->size()) {
      return Status::Corruption("sparse index out of range");
    }
    row->Set(index);
  }
  return Status::Ok();
}

Status DecodeRleRow(const std::vector<std::uint8_t>& in, std::size_t* pos,
                    BitVector* row) {
  const std::size_t num_words = row->num_words();
  std::size_t covered = 0;
  while (covered < num_words) {
    std::uint64_t zeros = 0;
    std::uint64_t literals = 0;
    if (!TakeVarint(in, pos, &zeros) || !TakeVarint(in, pos, &literals)) {
      return Status::Corruption("truncated rle token");
    }
    if (zeros == 0 && literals == 0) {
      return Status::Corruption("empty rle token");
    }
    if (zeros > num_words - covered ||
        literals > num_words - covered - zeros) {
      return Status::Corruption("rle run overflows row");
    }
    covered += static_cast<std::size_t>(zeros);  // Words are already zero.
    if (!TakeWords(in, pos, row->mutable_words() + covered,
                   static_cast<std::size_t>(literals))) {
      return Status::Corruption("truncated rle literal");
    }
    covered += static_cast<std::size_t>(literals);
  }
  if (!TailBitsClean(*row)) {
    return Status::Corruption("rle row tail garbage");
  }
  return Status::Ok();
}

}  // namespace

const char* DigestCodecName(DigestCodecId codec) {
  switch (codec) {
    case DigestCodecId::kRaw:
      return "raw";
    case DigestCodecId::kSparse:
      return "sparse";
  }
  return "unknown";
}

bool KnownDigestCodecId(std::uint8_t raw) {
  return raw == static_cast<std::uint8_t>(DigestCodecId::kRaw) ||
         raw == static_cast<std::uint8_t>(DigestCodecId::kSparse);
}

void EncodeRow(const BitVector& row, DigestCodecId codec,
               std::vector<std::uint8_t>* out) {
  const RowPlan plan = PlanRow(row, codec);
  out->push_back(plan.tag);
  switch (plan.tag) {
    case RowWire::kSparse:
      AppendSparseBody(row, plan.ones, out);
      break;
    case RowWire::kRle:
      AppendRleBody(row, out);
      break;
    default:
      AppendWords(out, row.words(), row.num_words());
      break;
  }
}

Status DecodeRow(const std::vector<std::uint8_t>& in, std::size_t* pos,
                 DigestCodecId codec, BitVector* row) {
  DCS_CHECK(row != nullptr);
  if (*pos >= in.size()) return Status::Corruption("missing row tag");
  const std::uint8_t tag = in[(*pos)++];
  if (codec == DigestCodecId::kRaw && tag != RowWire::kDense) {
    return Status::Corruption("compressed row in raw-codec payload");
  }
  switch (tag) {
    case RowWire::kDense:
      return DecodeDenseRow(in, pos, row);
    case RowWire::kSparse:
      return DecodeSparseRow(in, pos, row);
    case RowWire::kRle:
      return DecodeRleRow(in, pos, row);
    default:
      return Status::Corruption("unknown row tag");
  }
}

std::vector<std::uint8_t> EncodeDigestPayload(const Digest& digest,
                                              DigestCodecId codec) {
  std::vector<std::uint8_t> out;
  const std::size_t row_bytes =
      digest.rows.empty() ? 0 : digest.rows.front().num_words() * 8;
  out.reserve(DigestWireLayout::kHeaderBytes +
              digest.rows.size() * (row_bytes + 1) +
              DigestWireLayout::kChecksumBytes);
  // Field order defines DigestWireLayout; keep the two in sync.
  AppendU32(&out, DigestWireLayout::kMagic);
  AppendU32(&out, digest.router_id);
  AppendU64(&out, digest.epoch_id);
  AppendU32(&out, static_cast<std::uint32_t>(digest.kind));
  AppendU32(&out, digest.num_groups);
  AppendU32(&out, digest.arrays_per_group);
  AppendU64(&out, digest.rows.size());
  AppendU64(&out, digest.rows.empty() ? 0 : digest.rows.front().size());
  AppendU64(&out, digest.packets_covered);
  AppendU64(&out, digest.raw_bytes_covered);
  for (const BitVector& row : digest.rows) {
    EncodeRow(row, codec, &out);
  }
  AppendU64(&out,
            Hash64(out.data(), out.size(), /*seed=*/DigestWireLayout::kMagic));
  // Real encodes only: size accounting (EncodedPayloadSizeBytes, and so
  // Digest::EncodedSizeBytes) computes sizes without encoding.
  ObsCounter("digest.encode.calls").Increment();
  ObsCounter("digest.encode.bytes").Add(out.size());
  return out;
}

Status DecodeDigestPayload(const std::vector<std::uint8_t>& bytes,
                           DigestCodecId codec, Digest* out) {
  DCS_CHECK(out != nullptr);
  if (bytes.size() < 8) return Status::Corruption("digest too short");
  const std::uint64_t stored_checksum = [&] {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + bytes.size() - 8, 8);
    return v;
  }();
  const std::uint64_t computed =
      Hash64(bytes.data(), bytes.size() - 8, /*seed=*/DigestWireLayout::kMagic);
  if (stored_checksum != computed) {
    ObsCounter("digest.decode.checksum_failures").Increment();
    return Status::Corruption("digest checksum mismatch");
  }
  ObsCounter("digest.decode.calls").Increment();
  ObsCounter("digest.decode.bytes").Add(bytes.size());

  std::size_t pos = 0;
  std::uint32_t magic = 0;
  std::uint32_t kind_raw = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t row_bits = 0;
  Digest digest;
  if (!TakeU32(bytes, &pos, &magic) ||
      !TakeU32(bytes, &pos, &digest.router_id) ||
      !TakeU64(bytes, &pos, &digest.epoch_id) ||
      !TakeU32(bytes, &pos, &kind_raw) ||
      !TakeU32(bytes, &pos, &digest.num_groups) ||
      !TakeU32(bytes, &pos, &digest.arrays_per_group) ||
      !TakeU64(bytes, &pos, &num_rows) || !TakeU64(bytes, &pos, &row_bits) ||
      !TakeU64(bytes, &pos, &digest.packets_covered) ||
      !TakeU64(bytes, &pos, &digest.raw_bytes_covered)) {
    return Status::Corruption("truncated digest header");
  }
  if (magic != DigestWireLayout::kMagic) {
    return Status::Corruption("bad digest magic");
  }
  if (kind_raw != static_cast<std::uint32_t>(DigestKind::kAligned) &&
      kind_raw != static_cast<std::uint32_t>(DigestKind::kUnaligned)) {
    return Status::Corruption("unknown digest kind");
  }
  digest.kind = static_cast<DigestKind>(kind_raw);

  // Dimension sanity bounds (DigestWireLayout): the checksum is not
  // cryptographic, so a resealed lying header must not be able to drive
  // allocation. Every row costs at least its 1-byte tag on the wire, and the
  // claimed row size is capped before any BitVector is constructed.
  if (num_rows > bytes.size()) {
    return Status::Corruption("row count exceeds message size");
  }
  if (row_bits > DigestWireLayout::kMaxRowBits) {
    return Status::Corruption("row size implausibly large");
  }
  const std::uint64_t row_alloc_bytes = ((row_bits + 63) / 64) * 8;
  if (row_alloc_bytes != 0 &&
      num_rows > DigestWireLayout::kMaxTotalRowBytes / row_alloc_bytes) {
    return Status::Corruption("digest dimensions implausibly large");
  }

  digest.rows.reserve(num_rows);
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    BitVector row(row_bits);
    DCS_RETURN_IF_ERROR(DecodeRow(bytes, &pos, codec, &row));
    digest.rows.push_back(std::move(row));
  }
  if (pos + 8 != bytes.size()) {
    return Status::Corruption("digest trailing bytes");
  }
  *out = std::move(digest);
  return Status::Ok();
}

std::size_t EncodedPayloadSizeBytes(const Digest& digest,
                                    DigestCodecId codec) {
  std::size_t rows = 0;
  for (const BitVector& row : digest.rows) rows += PlanRow(row, codec).bytes;
  return DigestWireLayout::kHeaderBytes + rows +
         DigestWireLayout::kChecksumBytes;
}

DigestCodecId EncodeDigestPayloadAuto(const Digest& digest,
                                      std::vector<std::uint8_t>* out) {
  DCS_CHECK(out != nullptr);
  const std::size_t sparse_size =
      EncodedPayloadSizeBytes(digest, DigestCodecId::kSparse);
  const std::size_t raw_size =
      EncodedPayloadSizeBytes(digest, DigestCodecId::kRaw);
  // Keep the compressed form only when it pays for itself on the WAN: a
  // saving under 1/16 of the dense size is not worth the slower decode.
  const DigestCodecId codec = sparse_size + raw_size / 16 <= raw_size
                                  ? DigestCodecId::kSparse
                                  : DigestCodecId::kRaw;
  *out = EncodeDigestPayload(digest, codec);
  return codec;
}

}  // namespace dcs
