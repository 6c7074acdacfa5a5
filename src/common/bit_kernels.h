#ifndef DCS_COMMON_BIT_KERNELS_H_
#define DCS_COMMON_BIT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace dcs {

/// \brief Runtime-dispatched kernels for the AND+popcount hot path.
///
/// Every detector in the system — the aligned k-product search, the weight
/// screen, and the unaligned pair scan — bottoms out in "AND two word spans
/// and count the ones" (Section IV-D: "the vast majority of the
/// computational complexity ... comes from computing, for any two rows, the
/// number of indices in which both rows have value 1"). The aligned epoch's
/// per-column passes around those counts sit here too: the positional
/// popcount behind column weights and the core scan, its byte-lane form
/// for running weights, and the search's floor select. This table binds
/// those primitives to the best implementation the host supports (AVX2 on
/// x86-64, with an AVX-512 VPOPCNTDQ tile count where the CPU has it; NEON
/// on AArch64; portable scalar otherwise), selected once at startup. Every
/// result is an integer, so a SIMD table has to match the scalar one
/// exactly, not approximately.
///
/// Contract: every implementation of an operation returns bit-identical
/// results to the scalar reference for every input, including ragged word
/// counts and zero-length spans. The differential suite in
/// tests/test_bit_kernels.cc enforces this, which is what lets the analysis
/// pipelines keep their bit-identical-merge determinism guarantee (PR 2)
/// while the instruction mix changes underneath them.
///
/// All word counts are in 64-bit words; callers guarantee that padding bits
/// past a vector's logical size are zero (the BitVector invariant).
struct BitKernelOps {
  /// Implementation name for logs, benches, and tests: "scalar", "avx2",
  /// "avx512" (the AVX2 table with a VPOPCNTDQ tile count) or "neon".
  const char* name;

  /// Number of set bits in words[0, num_words).
  std::size_t (*count_ones)(const std::uint64_t* words, std::size_t num_words);

  /// Column-block AND+popcount: out[c] = popcount(left & col_c) over
  /// words_per_col words, col_c = block + c * words_per_col, for every
  /// c < num_cols (the AND is never materialized). The block holds num_cols
  /// columns of words_per_col words each, back to back, so one call counts
  /// a product against a whole slice of screened columns — the aligned
  /// k-product search's only count. `left` and `block` may be
  /// unaligned; at words_per_col 1 and 2 (an m <= 128-router matrix) the
  /// SIMD tables count several columns per vector.
  void (*and_count_columns)(const std::uint64_t* left,
                            const std::uint64_t* block, std::size_t num_cols,
                            std::size_t words_per_col, std::uint32_t* out);

  /// Tile AND+popcount: out[i * num_right + j] = popcount(left[i] &
  /// right[j]) over num_words words, for every i < num_left and
  /// j < num_right. The unaligned pair scan counts one whole group pair
  /// (arrays x arrays row pairs) per call, straight from the matrix rows;
  /// any pointer may be unaligned.
  void (*and_count_tile)(const std::uint64_t* const* left,
                         std::size_t num_left,
                         const std::uint64_t* const* right,
                         std::size_t num_right, std::size_t num_words,
                         std::uint32_t* out);

  /// Positional popcount ("column weights"): for every word w in
  /// [word_begin, word_end) and every set bit b of rows[r][w], adds one to
  /// counts[w * 64 + b]. The weight screen, BitMatrix::ColumnWeights and
  /// the aligned core scan count through it. counts must hold word_end * 64
  /// entries: the SIMD tables add each word's 64 counts as vectors, adding
  /// zero to the counts of a row's padding bits. Rows may be unaligned.
  void (*accumulate_column_counts)(const std::uint64_t* const* rows,
                                   std::size_t num_rows,
                                   std::size_t word_begin,
                                   std::size_t word_end,
                                   std::uint32_t* counts);

  /// One row into byte-wide column counters: lanes[w * 64 + b] += 1 for
  /// every set bit b of words[w], w < num_words. A counter wraps past 255,
  /// so the caller widens them before then (IncrementalColumnWeights).
  void (*add_row_to_byte_lanes)(const std::uint64_t* words,
                                std::size_t num_words, std::uint8_t* lanes);

  /// Writes to out, in ascending order, every k < n with values[k] >=
  /// floor, and returns how many it wrote. out must hold n entries: the
  /// scalar table writes each k before deciding whether to keep it. The
  /// aligned search filters each block of counts through it.
  std::size_t (*select_at_least)(const std::uint32_t* values, std::size_t n,
                                 std::uint32_t floor, std::uint32_t* out);
};

/// The portable scalar reference implementation. Always available; the
/// differential tests compare every other table against it.
const BitKernelOps& ScalarBitKernels();

/// The table the process uses: the best SIMD table the host CPU supports,
/// unless the DCS_FORCE_SCALAR environment variable is set to anything but
/// "0" (differential testing / bisecting a suspected kernel bug), or the
/// build omitted the SIMD translation unit (DCS_SCALAR_KERNELS_ONLY=ON).
/// Selected once; subsequent calls return the same table.
const BitKernelOps& ActiveBitKernels();

namespace internal {

/// The dispatch decision, factored out so tests can exercise both branches
/// without mutating the process environment: returns ScalarBitKernels()
/// when force_scalar is set, otherwise the best SIMD table the build has
/// and the host runs.
const BitKernelOps& SelectBitKernels(bool force_scalar);

/// Defined in src/common/bit_kernels_avx2.cc (the single translation unit
/// allowed target-specific intrinsics — see tools/dcs_lint). Every SIMD
/// table this host can run, best last: {"avx2"} or {"avx2", "avx512"} on
/// x86-64 ("avx512" needs AVX-512F and VPOPCNTDQ), {"neon"} on AArch64,
/// and none when the CPU lacks AVX2. When the build omits that TU
/// (DCS_SCALAR_KERNELS_ONLY=ON), a fallback definition in bit_kernels.cc
/// returns none unconditionally.
std::span<const BitKernelOps* const> RunnableSimdBitKernels();

}  // namespace internal

}  // namespace dcs

#endif  // DCS_COMMON_BIT_KERNELS_H_
