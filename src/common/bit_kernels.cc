#include "common/bit_kernels.h"

#include <array>
#include <bit>
#include <cstring>
#include <cstdlib>
#include <string_view>

namespace dcs {
namespace {

// ---------------------------------------------------------------------------
// Portable scalar kernels.
//
// The count loops run four independent accumulators so the adds do not form
// one serial dependency chain (the seed implementation's `count +=
// popcount(...)` retired one word per cycle at best). The compiler is free
// to vectorize these further; correctness never depends on it.
// ---------------------------------------------------------------------------

std::size_t ScalarCountOnes(const std::uint64_t* words,
                            std::size_t num_words) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    c0 += static_cast<std::size_t>(std::popcount(words[w]));
    c1 += static_cast<std::size_t>(std::popcount(words[w + 1]));
    c2 += static_cast<std::size_t>(std::popcount(words[w + 2]));
    c3 += static_cast<std::size_t>(std::popcount(words[w + 3]));
  }
  for (; w < num_words; ++w) {
    c0 += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return c0 + c1 + c2 + c3;
}

std::size_t ScalarAndCount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t num_words) {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    c1 += static_cast<std::size_t>(std::popcount(a[w + 1] & b[w + 1]));
    c2 += static_cast<std::size_t>(std::popcount(a[w + 2] & b[w + 2]));
    c3 += static_cast<std::size_t>(std::popcount(a[w + 3] & b[w + 3]));
  }
  for (; w < num_words; ++w) {
    c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return c0 + c1 + c2 + c3;
}

void ScalarAndCountColumns(const std::uint64_t* left,
                           const std::uint64_t* block, std::size_t num_cols,
                           std::size_t words_per_col, std::uint32_t* out) {
  // Columns of one or two words (m <= 128 rows) are the aligned search's
  // shapes; the left words stay in registers across the block.
  if (words_per_col == 1) {
    const std::uint64_t l0 = left[0];
    for (std::size_t c = 0; c < num_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(std::popcount(l0 & block[c]));
    }
  } else if (words_per_col == 2) {
    const std::uint64_t l0 = left[0];
    const std::uint64_t l1 = left[1];
    for (std::size_t c = 0; c < num_cols; ++c) {
      const std::uint64_t* col = block + 2 * c;
      out[c] = static_cast<std::uint32_t>(std::popcount(l0 & col[0]) +
                                          std::popcount(l1 & col[1]));
    }
  } else {
    for (std::size_t c = 0; c < num_cols; ++c) {
      out[c] = static_cast<std::uint32_t>(
          ScalarAndCount(left, block + c * words_per_col, words_per_col));
    }
  }
}

void ScalarAndCountTile(const std::uint64_t* const* left,
                        std::size_t num_left,
                        const std::uint64_t* const* right,
                        std::size_t num_right, std::size_t num_words,
                        std::uint32_t* out) {
  for (std::size_t i = 0; i < num_left; ++i) {
    for (std::size_t j = 0; j < num_right; ++j) {
      out[i * num_right + j] = static_cast<std::uint32_t>(
          ScalarAndCount(left[i], right[j], num_words));
    }
  }
}

// ---------------------------------------------------------------------------
// Positional popcount (column weights).
// ---------------------------------------------------------------------------

// Full adder on 64 columns at once: {*h,*l} = a + b + c per bit lane.
inline void Csa(std::uint64_t* h, std::uint64_t* l, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  *h = (a & b) | (u & c);
  *l = u ^ c;
}

// counts[base + bit] += weight for every set bit of plane.
inline void AddPlane(std::uint64_t plane, std::uint32_t weight,
                     std::size_t base, std::uint32_t* counts) {
  while (plane != 0) {
    const int bit = std::countr_zero(plane);
    counts[base + static_cast<std::size_t>(bit)] += weight;
    plane &= plane - 1;
  }
}

void ScalarAccumulateColumnCounts(const std::uint64_t* const* rows,
                                  std::size_t num_rows,
                                  std::size_t word_begin,
                                  std::size_t word_end,
                                  std::uint32_t* counts) {
  std::size_t r = 0;
  // Carry-save reduction: 15 rows compress to five planes of weights
  // 1/2/4/8/8, so a ~half-full word costs ~5 plane scans per block instead
  // of 15 (the seed walked every row's word bit by bit).
  for (; r + 15 <= num_rows; r += 15) {
    for (std::size_t w = word_begin; w < word_end; ++w) {
      const auto row = [&](std::size_t i) { return rows[r + i][w]; };
      std::uint64_t ones, twos, fours, twos_a, twos_b, fours_a, fours_b;
      std::uint64_t eights_a, eights_b;
      Csa(&twos_a, &ones, row(0), row(1), row(2));
      Csa(&twos_b, &ones, ones, row(3), row(4));
      Csa(&fours_a, &twos, twos_a, twos_b, 0);
      Csa(&twos_a, &ones, ones, row(5), row(6));
      Csa(&twos_b, &ones, ones, row(7), row(8));
      Csa(&fours_b, &twos, twos, twos_a, twos_b);
      Csa(&eights_a, &fours, fours_a, fours_b, 0);
      Csa(&twos_a, &ones, ones, row(9), row(10));
      Csa(&twos_b, &ones, ones, row(11), row(12));
      Csa(&fours_a, &twos, twos, twos_a, twos_b);
      Csa(&twos_a, &ones, ones, row(13), row(14));
      Csa(&fours_b, &twos, twos, twos_a, 0);
      Csa(&eights_b, &fours, fours, fours_a, fours_b);
      const std::size_t base = w << 6;
      AddPlane(ones, 1, base, counts);
      AddPlane(twos, 2, base, counts);
      AddPlane(fours, 4, base, counts);
      AddPlane(eights_a, 8, base, counts);
      AddPlane(eights_b, 8, base, counts);
    }
  }
  // Remainder rows: plain per-bit accumulation.
  for (; r < num_rows; ++r) {
    for (std::size_t w = word_begin; w < word_end; ++w) {
      AddPlane(rows[r][w], 1, w << 6, counts);
    }
  }
}

// kSpread[x] holds bit j of x in the j-th byte of its in-memory
// representation, so adding it to eight byte lanes loaded as one word counts
// each of x's bits in its own lane.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t x = 0; x < table.size(); ++x) {
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t byte =
          std::endian::native == std::endian::little ? j : 7 - j;
      table[x] |= static_cast<std::uint64_t>((x >> j) & 1) << (8 * byte);
    }
  }
  return table;
}();

// Eight table adds per non-zero word, however many of its bits are set.
void ScalarAddRowToByteLanes(const std::uint64_t* words,
                             std::size_t num_words, std::uint8_t* lanes) {
  for (std::size_t w = 0; w < num_words; ++w) {
    const std::uint64_t word = words[w];
    if (word == 0) continue;
    std::uint8_t* lane = lanes + 64 * w;
    for (std::size_t b = 0; b < 8; ++b) {
      std::uint64_t eight;
      std::memcpy(&eight, lane + 8 * b, sizeof(eight));
      eight += kSpread[(word >> (8 * b)) & 0xFF];
      std::memcpy(lane + 8 * b, &eight, sizeof(eight));
    }
  }
}

// Branch-free: every k is written, and the cursor moves past it only if it
// is kept, so a mispredicted compare costs nothing.
std::size_t ScalarSelectAtLeast(const std::uint32_t* values, std::size_t n,
                                std::uint32_t floor, std::uint32_t* out) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k) {
    out[kept] = static_cast<std::uint32_t>(k);
    kept += static_cast<std::size_t>(values[k] >= floor);
  }
  return kept;
}

constexpr BitKernelOps kScalarOps = {
    "scalar",
    ScalarCountOnes,
    ScalarAndCountColumns,
    ScalarAndCountTile,
    ScalarAccumulateColumnCounts,
    ScalarAddRowToByteLanes,
    ScalarSelectAtLeast,
};

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const BitKernelOps& ScalarBitKernels() { return kScalarOps; }

namespace internal {

#if !defined(DCS_WITH_SIMD_KERNELS)
// The SIMD translation unit was omitted from this build
// (DCS_SCALAR_KERNELS_ONLY=ON); there is no table to dispatch to.
std::span<const BitKernelOps* const> RunnableSimdBitKernels() { return {}; }
#endif

const BitKernelOps& SelectBitKernels(bool force_scalar) {
  if (force_scalar) return kScalarOps;
  const std::span<const BitKernelOps* const> simd = RunnableSimdBitKernels();
  return simd.empty() ? kScalarOps : *simd.back();
}

}  // namespace internal

const BitKernelOps& ActiveBitKernels() {
  static const BitKernelOps* const table = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): environment is never mutated.
    const char* force = std::getenv("DCS_FORCE_SCALAR");
    const bool force_scalar =
        force != nullptr && *force != '\0' && std::string_view(force) != "0";
    return &internal::SelectBitKernels(force_scalar);
  }();
  return *table;
}

}  // namespace dcs
