// The single translation unit allowed target-specific intrinsics
// (tools/dcs_lint enforces this). On x86-64 it is compiled with -mavx2 and
// provides the AVX2 kernel table behind a runtime __builtin_cpu_supports
// check — nothing here executes on hosts without AVX2. Its AVX-512 code is
// confined to functions carrying __attribute__((target(...))), so the
// file's flags stay -mavx2, and runs only when __builtin_cpu_supports
// reports AVX-512F and VPOPCNTDQ. On AArch64 it
// provides the NEON table (NEON is architecturally mandatory there, so no
// runtime check is needed). Everywhere else it compiles to a stub and the
// dispatcher falls back to the portable scalar table.
//
// Correctness contract: every kernel here must return bit-identical results
// to the scalar reference in bit_kernels.cc for every input shape. The
// differential suite in tests/test_bit_kernels.cc is the gate; run it with
// and without DCS_FORCE_SCALAR=1 when touching this file.

#include "common/bit_kernels.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace dcs {
namespace {

// Word-range tile for the one-against-many batch; 2048 words = 16 KiB of
// left operand held hot while rows stream past.
constexpr std::size_t kTileWords = 2048;

// Per-byte popcount of a 256-bit lane via the classic nibble lookup
// (Mula): two shuffles and an add replace 32 scalar popcounts.
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

inline std::uint64_t HorizontalSum64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

// Core of both count kernels: popcount of (a[w] & b[w]) over the span, with
// b == nullptr meaning "no mask" (plain popcount). Byte counters absorb up
// to 31 vectors (31 * 8 = 248 < 256) before spilling into the 64-bit
// accumulator via SAD.
template <bool kMasked>
inline std::size_t CountImpl(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t num_words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  while (num_words - w >= 4) {
    __m256i bytes = _mm256_setzero_si256();
    const std::size_t vectors_left = (num_words - w) / 4;
    const std::size_t block = std::min<std::size_t>(vectors_left, 31);
    for (std::size_t i = 0; i < block; ++i, w += 4) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a + w));
      if constexpr (kMasked) {
        const __m256i m = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + w));
        v = _mm256_and_si256(v, m);
      }
      bytes = _mm256_add_epi8(bytes, PopcountBytes(v));
    }
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
  }
  std::size_t total = HorizontalSum64(acc);
  for (; w < num_words; ++w) {
    total += static_cast<std::size_t>(
        std::popcount(kMasked ? (a[w] & b[w]) : a[w]));
  }
  return total;
}

std::size_t Avx2CountOnes(const std::uint64_t* words, std::size_t num_words) {
  return CountImpl<false>(words, nullptr, num_words);
}

std::size_t Avx2AndCount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t num_words) {
  return CountImpl<true>(a, b, num_words);
}

void Avx2AndCountBatch(const std::uint64_t* left,
                       const std::uint64_t* const* rows,
                       std::size_t num_rows, std::size_t num_words,
                       std::uint32_t* out) {
  // One left row against many: the row loop of the tile count below. Below
  // a vector's worth of data per row the scalar loop wins on latency.
  if (num_words < 8) {
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::size_t count = 0;
      for (std::size_t w = 0; w < num_words; ++w) {
        count += static_cast<std::size_t>(std::popcount(left[w] & rows[r][w]));
      }
      out[r] = static_cast<std::uint32_t>(count);
    }
    return;
  }
  for (std::size_t r = 0; r < num_rows; ++r) out[r] = 0;
  for (std::size_t tile = 0; tile < num_words; tile += kTileWords) {
    const std::size_t len = std::min(kTileWords, num_words - tile);
    for (std::size_t r = 0; r < num_rows; ++r) {
      out[r] += static_cast<std::uint32_t>(
          Avx2AndCount(left + tile, rows[r] + tile, len));
    }
  }
}

void Avx2AndCountTile(const std::uint64_t* const* left, std::size_t num_left,
                      const std::uint64_t* const* right,
                      std::size_t num_right, std::size_t num_words,
                      std::uint32_t* out) {
  for (std::size_t i = 0; i < num_left; ++i) {
    Avx2AndCountBatch(left[i], right, num_right, num_words,
                      out + i * num_right);
  }
}

// Stores eight column counts from two vectors of 64-bit lane sums, `lo`
// holding four of them and `hi` the other four: each count fits 32 bits,
// so `hi` moves into the odd 32-bit lanes and `order` puts the eight in
// column order.
inline void StoreEightCounts(__m256i lo, __m256i hi, __m256i order,
                             std::uint32_t* out) {
  const __m256i packed = _mm256_or_si256(lo, _mm256_slli_epi64(hi, 32));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(packed, order));
}

// Eight columns per step at one and two words per column; the leftover
// columns, and every column of a wider block, are counted one at a time.
void Avx2AndCountColumns(const std::uint64_t* left, const std::uint64_t* block,
                         std::size_t num_cols, std::size_t words_per_col,
                         std::uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const auto load = [](const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  std::size_t c = 0;
  if (words_per_col == 1) {
    // Four columns per vector; the byte counts of each sum in its lane.
    const __m256i l = _mm256_set1_epi64x(static_cast<long long>(left[0]));
    const __m256i order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    for (; c + 8 <= num_cols; c += 8) {
      const __m256i a = PopcountBytes(_mm256_and_si256(l, load(block + c)));
      const __m256i b =
          PopcountBytes(_mm256_and_si256(l, load(block + c + 4)));
      StoreEightCounts(_mm256_sad_epu8(a, zero), _mm256_sad_epu8(b, zero),
                       order, out + c);
    }
  } else if (words_per_col == 2) {
    // Two columns per vector. Interleaving the words of two vectors and
    // adding their byte counts puts a whole column in each 64-bit lane:
    // columns (0, 2, 1, 3) from p0 and p1, (4, 6, 5, 7) from p2 and p3.
    const __m256i l = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(left)));
    const __m256i order = _mm256_setr_epi32(0, 4, 2, 6, 1, 5, 3, 7);
    for (; c + 8 <= num_cols; c += 8) {
      const std::uint64_t* col = block + 2 * c;
      const __m256i p0 = PopcountBytes(_mm256_and_si256(l, load(col)));
      const __m256i p1 = PopcountBytes(_mm256_and_si256(l, load(col + 4)));
      const __m256i p2 = PopcountBytes(_mm256_and_si256(l, load(col + 8)));
      const __m256i p3 = PopcountBytes(_mm256_and_si256(l, load(col + 12)));
      const __m256i q01 = _mm256_add_epi8(_mm256_unpacklo_epi64(p0, p1),
                                          _mm256_unpackhi_epi64(p0, p1));
      const __m256i q23 = _mm256_add_epi8(_mm256_unpacklo_epi64(p2, p3),
                                          _mm256_unpackhi_epi64(p2, p3));
      StoreEightCounts(_mm256_sad_epu8(q01, zero), _mm256_sad_epu8(q23, zero),
                       order, out + c);
    }
  }
  for (; c < num_cols; ++c) {
    out[c] = static_cast<std::uint32_t>(
        Avx2AndCount(left, block + c * words_per_col, words_per_col));
  }
}

// Byte-lane positional counts. A word is broadcast to every 64-bit lane;
// `Lo` and `Hi` route its byte k / 8 to lane byte k and test bit k % 8
// there, so byte k of (Lo, Hi) is 0xFF exactly where bit k is set, and
// subtracting that from a byte counter adds one.
struct WordToBytes {
  const __m256i spread_lo = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i spread_hi = _mm256_setr_epi8(
      4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5,  //
      6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7);
  const __m256i bit =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));

  __m256i Lo(__m256i word) const {
    return _mm256_cmpeq_epi8(
        _mm256_and_si256(_mm256_shuffle_epi8(word, spread_lo), bit), bit);
  }
  __m256i Hi(__m256i word) const {
    return _mm256_cmpeq_epi8(
        _mm256_and_si256(_mm256_shuffle_epi8(word, spread_hi), bit), bit);
  }
};

inline __m256i Broadcast(std::uint64_t word) {
  return _mm256_set1_epi64x(static_cast<long long>(word));
}

// A byte counter holds at most this many rows before it must be widened.
constexpr std::size_t kMaxByteRows = 255;

// counts[i] += byte i of `bytes`, for i < 32.
inline void AddByteCounts(__m256i bytes, std::uint32_t* counts) {
  const auto add_eight = [counts](__m128i eight, std::size_t at) {
    __m256i* p = reinterpret_cast<__m256i*>(counts + at);
    _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p),
                                            _mm256_cvtepu8_epi32(eight)));
  };
  const __m128i lo = _mm256_castsi256_si128(bytes);
  const __m128i hi = _mm256_extracti128_si256(bytes, 1);
  add_eight(lo, 0);
  add_eight(_mm_srli_si128(lo, 8), 8);
  add_eight(hi, 16);
  add_eight(_mm_srli_si128(hi, 8), 24);
}

// Words [w, w + kWords) of every row, counted in 2 * kWords byte-lane
// registers and widened into counts every kMaxByteRows rows.
template <std::size_t kWords>
void Avx2CountWords(const std::uint64_t* const* rows, std::size_t num_rows,
                    std::size_t w, std::uint32_t* counts) {
  const WordToBytes to_bytes;
  for (std::size_t r0 = 0; r0 < num_rows; r0 += kMaxByteRows) {
    const std::size_t r_end = std::min(num_rows, r0 + kMaxByteRows);
    __m256i acc[2 * kWords];
    for (__m256i& a : acc) a = _mm256_setzero_si256();
    for (std::size_t r = r0; r < r_end; ++r) {
      const std::uint64_t* row = rows[r] + w;
      for (std::size_t j = 0; j < kWords; ++j) {
        const __m256i word = Broadcast(row[j]);
        acc[2 * j] = _mm256_sub_epi8(acc[2 * j], to_bytes.Lo(word));
        acc[2 * j + 1] = _mm256_sub_epi8(acc[2 * j + 1], to_bytes.Hi(word));
      }
    }
    for (std::size_t j = 0; j < 2 * kWords; ++j) {
      AddByteCounts(acc[j], counts + w * 64 + 32 * j);
    }
  }
}

void Avx2AccumulateColumnCounts(const std::uint64_t* const* rows,
                                std::size_t num_rows, std::size_t word_begin,
                                std::size_t word_end, std::uint32_t* counts) {
  std::size_t w = word_begin;
  for (; w + 4 <= word_end; w += 4) {
    Avx2CountWords<4>(rows, num_rows, w, counts);
  }
  for (; w < word_end; ++w) Avx2CountWords<1>(rows, num_rows, w, counts);
}

void Avx2AddRowToByteLanes(const std::uint64_t* words, std::size_t num_words,
                           std::uint8_t* lanes) {
  const WordToBytes to_bytes;
  for (std::size_t w = 0; w < num_words; ++w) {
    const __m256i word = Broadcast(words[w]);
    auto* p = reinterpret_cast<__m256i*>(lanes + 64 * w);
    _mm256_storeu_si256(
        p, _mm256_sub_epi8(_mm256_loadu_si256(p), to_bytes.Lo(word)));
    _mm256_storeu_si256(
        p + 1, _mm256_sub_epi8(_mm256_loadu_si256(p + 1), to_bytes.Hi(word)));
  }
}

// Sixteen values per step: an unsigned compare (max(v, floor) == v) and a
// movemask give one bit per kept value, and a ctz walk writes them out.
std::size_t Avx2SelectAtLeast(const std::uint32_t* values, std::size_t n,
                              std::uint32_t floor, std::uint32_t* out) {
  const __m256i f = _mm256_set1_epi32(static_cast<int>(floor));
  const auto at_least = [f](const std::uint32_t* p) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i keep = _mm256_cmpeq_epi32(_mm256_max_epu32(v, f), v);
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(keep)));
  };
  std::size_t kept = 0;
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    std::uint32_t mask = at_least(values + k) | at_least(values + k + 8) << 8;
    while (mask != 0) {
      out[kept++] = static_cast<std::uint32_t>(k) +
                    static_cast<std::uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
    }
  }
  for (; k < n; ++k) {
    out[kept] = static_cast<std::uint32_t>(k);
    kept += static_cast<std::size_t>(values[k] >= floor);
  }
  return kept;
}

#define DCS_TARGET_AVX512 __attribute__((target("avx512f,avx512vpopcntdq")))

// The AVX-512 intrinsics below are the zero-masked (maskz) forms with a
// full mask: the unmasked ones trip a false -Wmaybe-uninitialized in
// GCC 12's headers, and the full mask compiles to the same instruction.

// Lane-wise VPOPCNTQ sums of a & b over a row: `full` words in 8-word
// vectors, then the ragged tail through a zero-masked load.
DCS_TARGET_AVX512 inline __m512i LaneCounts(const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            std::size_t full,
                                            __mmask8 tail) {
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t w = 0; w < full; w += 8) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + w),
                                       _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (tail != 0) {
    const __m512i v =
        _mm512_and_si512(_mm512_maskz_loadu_epi64(tail, a + full),
                         _mm512_maskz_loadu_epi64(tail, b + full));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return acc;
}

// Within each 128-bit chunk: (x's two lanes summed, y's two lanes summed).
DCS_TARGET_AVX512 inline __m512i AddLanePairs(__m512i x, __m512i y) {
  return _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xff, x, y),
                          _mm512_maskz_unpackhi_epi64(0xff, x, y));
}

// One left row against four right rows per step, so the left row's loads
// are shared and one shuffle tree reduces four pairs; leftover right rows
// go one at a time.
DCS_TARGET_AVX512 void Avx512AndCountTile(const std::uint64_t* const* left,
                                          std::size_t num_left,
                                          const std::uint64_t* const* right,
                                          std::size_t num_right,
                                          std::size_t num_words,
                                          std::uint32_t* out) {
  const std::size_t full = num_words & ~std::size_t{7};
  const auto tail = static_cast<__mmask8>((1u << (num_words - full)) - 1u);
  // Lanes 0, 1, 4, 5: where the tree below leaves the four sums.
  const __m512i sum_lanes = _mm512_set_epi64(0, 0, 0, 0, 5, 4, 1, 0);
  for (std::size_t i = 0; i < num_left; ++i) {
    const std::uint64_t* a = left[i];
    std::uint32_t* row_out = out + i * num_right;
    std::size_t j = 0;
    for (; j + 4 <= num_right; j += 4) {
      const std::uint64_t* b0 = right[j];
      const std::uint64_t* b1 = right[j + 1];
      const std::uint64_t* b2 = right[j + 2];
      const std::uint64_t* b3 = right[j + 3];
      __m512i c0 = _mm512_setzero_si512();
      __m512i c1 = c0;
      __m512i c2 = c0;
      __m512i c3 = c0;
      for (std::size_t w = 0; w < full; w += 8) {
        const __m512i av = _mm512_loadu_si512(a + w);
        c0 = _mm512_add_epi64(c0, _mm512_popcnt_epi64(_mm512_and_si512(
                                      av, _mm512_loadu_si512(b0 + w))));
        c1 = _mm512_add_epi64(c1, _mm512_popcnt_epi64(_mm512_and_si512(
                                      av, _mm512_loadu_si512(b1 + w))));
        c2 = _mm512_add_epi64(c2, _mm512_popcnt_epi64(_mm512_and_si512(
                                      av, _mm512_loadu_si512(b2 + w))));
        c3 = _mm512_add_epi64(c3, _mm512_popcnt_epi64(_mm512_and_si512(
                                      av, _mm512_loadu_si512(b3 + w))));
      }
      if (tail != 0) {
        const __m512i av = _mm512_maskz_loadu_epi64(tail, a + full);
        const auto tail_of = [&](const std::uint64_t* b) DCS_TARGET_AVX512 {
          return _mm512_popcnt_epi64(
              _mm512_and_si512(av, _mm512_maskz_loadu_epi64(tail, b + full)));
        };
        c0 = _mm512_add_epi64(c0, tail_of(b0));
        c1 = _mm512_add_epi64(c1, tail_of(b1));
        c2 = _mm512_add_epi64(c2, tail_of(b2));
        c3 = _mm512_add_epi64(c3, tail_of(b3));
      }
      // Chunk k of s01 holds (c0, c1) summed over chunk k's two lanes, and
      // likewise s23; t then holds both rows' halves, and u their totals:
      // (c0, c1) in lanes 0-1 and (c2, c3) in lanes 4-5.
      const __m512i s01 = AddLanePairs(c0, c1);
      const __m512i s23 = AddLanePairs(c2, c3);
      const __m512i t = _mm512_add_epi64(
          _mm512_maskz_shuffle_i64x2(0xff, s01, s23, _MM_SHUFFLE(2, 0, 2, 0)),
          _mm512_maskz_shuffle_i64x2(0xff, s01, s23, _MM_SHUFFLE(3, 1, 3, 1)));
      const __m512i u = _mm512_add_epi64(
          t, _mm512_maskz_shuffle_i64x2(0xff, t, t, _MM_SHUFFLE(2, 3, 0, 1)));
      // A plain 128-bit store, which later 32-bit loads can forward from.
      const __m256i sums = _mm512_maskz_cvtepi64_epi32(
          0xff, _mm512_maskz_permutexvar_epi64(0xff, sum_lanes, u));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(row_out + j),
                       _mm256_castsi256_si128(sums));
    }
    for (; j < num_right; ++j) {
      const __m512i c = LaneCounts(a, right[j], full, tail);
      const __m256i half =
          _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xff, c, 0),
                           _mm512_maskz_extracti64x4_epi64(0xff, c, 1));
      row_out[j] = static_cast<std::uint32_t>(HorizontalSum64(half));
    }
  }
}

#undef DCS_TARGET_AVX512

constexpr BitKernelOps kAvx2Ops = {
    "avx2",
    Avx2CountOnes,
    Avx2AndCountColumns,
    Avx2AndCountTile,
    Avx2AccumulateColumnCounts,
    Avx2AddRowToByteLanes,
    Avx2SelectAtLeast,
};

// The AVX2 table with only the tile count replaced, so every other caller
// (the aligned path above all) runs exactly the AVX2 code.
constexpr BitKernelOps kAvx512Ops = {
    "avx512",
    Avx2CountOnes,
    Avx2AndCountColumns,
    Avx512AndCountTile,
    Avx2AccumulateColumnCounts,
    Avx2AddRowToByteLanes,
    Avx2SelectAtLeast,
};

}  // namespace

namespace internal {

std::span<const BitKernelOps* const> RunnableSimdBitKernels() {
  static constexpr const BitKernelOps* kTables[] = {&kAvx2Ops, &kAvx512Ops};
  if (!__builtin_cpu_supports("avx2")) return {};
  const bool avx512 = __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512vpopcntdq");
  return {kTables, avx512 ? 2u : 1u};
}

}  // namespace internal
}  // namespace dcs

#elif defined(__aarch64__)

#include <arm_neon.h>

namespace dcs {
namespace {

std::size_t NeonCountOnes(const std::uint64_t* words, std::size_t num_words) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= num_words; w += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(vld1q_u64(words + w));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  std::size_t total = static_cast<std::size_t>(vgetq_lane_u64(acc, 0)) +
                      static_cast<std::size_t>(vgetq_lane_u64(acc, 1));
  for (; w < num_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return total;
}

std::size_t NeonAndCount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t num_words) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= num_words; w += 2) {
    const uint8x16_t v = vreinterpretq_u8_u64(
        vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  std::size_t total = static_cast<std::size_t>(vgetq_lane_u64(acc, 0)) +
                      static_cast<std::size_t>(vgetq_lane_u64(acc, 1));
  for (; w < num_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

// Column-block count: a one-word column is one 64-bit register, a
// two-word column one 128-bit register, summed across its bytes (at most
// 64 or 128, so the 8-bit across-vector sum cannot wrap).
void NeonAndCountColumns(const std::uint64_t* left, const std::uint64_t* block,
                         std::size_t num_cols, std::size_t words_per_col,
                         std::uint32_t* out) {
  if (words_per_col == 1) {
    const uint64x1_t l = vld1_u64(left);
    for (std::size_t c = 0; c < num_cols; ++c) {
      const uint8x8_t v = vreinterpret_u8_u64(vand_u64(l, vld1_u64(block + c)));
      out[c] = vaddv_u8(vcnt_u8(v));
    }
  } else if (words_per_col == 2) {
    const uint64x2_t l = vld1q_u64(left);
    for (std::size_t c = 0; c < num_cols; ++c) {
      const uint8x16_t v =
          vreinterpretq_u8_u64(vandq_u64(l, vld1q_u64(block + 2 * c)));
      out[c] = vaddvq_u8(vcntq_u8(v));
    }
  } else {
    for (std::size_t c = 0; c < num_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(
          NeonAndCount(left, block + c * words_per_col, words_per_col));
    }
  }
}

void NeonAndCountTile(const std::uint64_t* const* left, std::size_t num_left,
                      const std::uint64_t* const* right,
                      std::size_t num_right, std::size_t num_words,
                      std::uint32_t* out) {
  for (std::size_t i = 0; i < num_left; ++i) {
    for (std::size_t j = 0; j < num_right; ++j) {
      out[i * num_right + j] = static_cast<std::uint32_t>(
          NeonAndCount(left[i], right[j], num_words));
    }
  }
}

}  // namespace

namespace internal {

std::span<const BitKernelOps* const> RunnableSimdBitKernels() {
  // The scalar table with the count kernels replaced; the positional
  // counts and the floor select stay scalar.
  static const BitKernelOps kNeonOps = [] {
    BitKernelOps ops = ScalarBitKernels();
    ops.name = "neon";
    ops.count_ones = NeonCountOnes;
    ops.and_count_columns = NeonAndCountColumns;
    ops.and_count_tile = NeonAndCountTile;
    return ops;
  }();
  static const BitKernelOps* const kTables[] = {&kNeonOps};
  return kTables;
}

}  // namespace internal
}  // namespace dcs

#else  // No SIMD table for this target; dispatch stays on scalar.

namespace dcs {
namespace internal {

std::span<const BitKernelOps* const> RunnableSimdBitKernels() { return {}; }

}  // namespace internal
}  // namespace dcs

#endif
