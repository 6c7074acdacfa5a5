// Differential suite for the runtime-dispatched bit kernels: every table
// this host can run (the scalar reference, and each SIMD table the build
// has and the CPU supports) must produce bit-identical results on
// randomized, ragged, and extreme inputs. This is what lets the analysis
// pipelines keep their bit-identical-merge determinism guarantee while the
// instruction mix changes underneath them.

#include "common/bit_kernels.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dcs {
namespace {

// Naive single-word-at-a-time implementations, deliberately too simple to
// be wrong, as the oracle for both tables.
std::size_t NaiveCountOnes(const std::vector<std::uint64_t>& words) {
  std::size_t count = 0;
  for (std::uint64_t w : words) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

std::size_t NaiveAndCount(const std::vector<std::uint64_t>& a,
                          const std::vector<std::uint64_t>& b) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < a.size(); ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

std::vector<std::uint64_t> RandomWords(Rng* rng, std::size_t num_words) {
  std::vector<std::uint64_t> words(num_words);
  for (std::uint64_t& w : words) w = rng->Next();
  return words;
}

// The word lengths every test sweeps: zero, sub-stride raggedness around
// the SIMD widths (4-word AVX2 stride), the 31-vector popcount block
// boundary (124 words), and spans longer than the 2048-word range the AVX2
// tile count holds hot.
const std::size_t kLengths[] = {0,  1,  2,   3,   4,   5,    7,    8,
                                9,  15, 16,  31,  32,  63,   64,   123,
                                124, 125, 128, 1000, 2048, 2049, 4100};

// Words starting `offset` words past a 64-byte boundary inside `storage`,
// so no SIMD load of the kernel under test is aligned unless offset is 0.
std::uint64_t* OffsetWords(std::vector<std::uint64_t>* storage,
                           std::size_t num_words, std::size_t offset) {
  storage->assign(num_words + offset + 8, 0);
  std::uint64_t* base = storage->data();
  while (reinterpret_cast<std::uintptr_t>(base) % 64 != 0) ++base;
  return base + offset;
}

// The table named `name` if this host can run it, else nullptr.
const BitKernelOps* RunnableTable(std::string_view name) {
  if (name == "scalar") return &ScalarBitKernels();
  for (const BitKernelOps* table : internal::RunnableSimdBitKernels()) {
    if (name == table->name) return table;
  }
  return nullptr;
}

// One instantiation per table name; a table the host cannot run (or the
// build omits) skips.
class BitKernelTablesTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    table_ = RunnableTable(GetParam());
    if (table_ == nullptr) GTEST_SKIP() << GetParam() << " not runnable here";
  }
  const BitKernelOps& ops() const { return *table_; }

 private:
  const BitKernelOps* table_ = nullptr;
};

TEST_P(BitKernelTablesTest, CountOnesMatchesNaive) {
  Rng rng(101);
  for (std::size_t len : kLengths) {
    const auto words = RandomWords(&rng, len);
    EXPECT_EQ(ops().count_ones(words.data(), len), NaiveCountOnes(words))
        << "len=" << len;
  }
}

TEST_P(BitKernelTablesTest, CountOnesExtremes) {
  for (std::size_t len : kLengths) {
    const std::vector<std::uint64_t> zeros(len, 0);
    const std::vector<std::uint64_t> ones(len, ~0ULL);
    EXPECT_EQ(ops().count_ones(zeros.data(), len), 0u) << "len=" << len;
    EXPECT_EQ(ops().count_ones(ones.data(), len), len * 64) << "len=" << len;
  }
}

TEST_P(BitKernelTablesTest, ColumnsMatchPairwise) {
  // The column-block count against the naive pairwise count: one to five
  // words per column (the SIMD tables specialise one and two), 0-37
  // columns (ragged against every vector width), block and left operand off
  // 64-byte alignment, and zero and all-ones columns and left operands.
  Rng rng(505);
  constexpr std::size_t kMaxCols = 37;
  for (std::size_t wpc = 1; wpc <= 5; ++wpc) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}}) {
      std::vector<std::uint64_t> block_storage, left_storage;
      std::uint64_t* block =
          OffsetWords(&block_storage, kMaxCols * wpc, offset);
      for (std::size_t c = 0; c < kMaxCols; ++c) {
        for (std::size_t w = 0; w < wpc; ++w) {
          block[c * wpc + w] =
              c % 5 == 4 ? 0 : c % 7 == 6 ? ~0ULL : rng.Next();
        }
      }
      std::uint64_t* left = OffsetWords(&left_storage, wpc, offset + 1);
      for (int kind = 0; kind < 3; ++kind) {
        for (std::size_t w = 0; w < wpc; ++w) {
          left[w] = kind == 0 ? rng.Next() : kind == 1 ? 0 : ~0ULL;
        }
        for (std::size_t num_cols = 0; num_cols <= kMaxCols; ++num_cols) {
          // One sentinel past the end: the kernel writes num_cols counts.
          std::vector<std::uint32_t> out(num_cols + 1, 0xABABABAB);
          ops().and_count_columns(left, block, num_cols, wpc, out.data());
          for (std::size_t c = 0; c < num_cols; ++c) {
            std::size_t want = 0;
            for (std::size_t w = 0; w < wpc; ++w) {
              want += static_cast<std::size_t>(
                  std::popcount(left[w] & block[c * wpc + w]));
            }
            ASSERT_EQ(out[c], want)
                << "wpc=" << wpc << " offset=" << offset << " kind=" << kind
                << " cols=" << num_cols << " c=" << c;
          }
          ASSERT_EQ(out[num_cols], 0xABABABABu)
              << "wpc=" << wpc << " cols=" << num_cols;
        }
      }
    }
  }
}

TEST_P(BitKernelTablesTest, RandomizedBitLengthFuzz) {
  // Randomized lengths in 0..8192 bits: allocate whole words, mask the tail
  // to the bit length (the BitVector zero-padding invariant), and check the
  // fused count, as one column num_words wide, against the naive oracle.
  Rng rng(606);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_bits = rng.UniformInt(8193);
    const std::size_t num_words = (num_bits + 63) / 64;
    auto a = RandomWords(&rng, num_words);
    auto b = RandomWords(&rng, num_words);
    if (num_bits % 64 != 0) {
      const std::uint64_t mask = (1ULL << (num_bits % 64)) - 1;
      a.back() &= mask;
      b.back() &= mask;
    }
    std::uint32_t common = 0;
    ops().and_count_columns(a.data(), b.data(), 1, num_words, &common);
    ASSERT_EQ(common, NaiveAndCount(a, b)) << "bits=" << num_bits;
    ASSERT_EQ(ops().count_ones(a.data(), num_words), NaiveCountOnes(a))
        << "bits=" << num_bits;
  }
}

// Rows for the tile kernel, each starting one word past a 64-byte
// boundary so no SIMD load is aligned: row r holds `num_words` random
// words, except that every fifth row is all zeros and every seventh all
// ones. Returns the row pointers into `storage`.
std::vector<const std::uint64_t*> TileRows(
    Rng* rng, std::size_t num_rows, std::size_t num_words,
    std::vector<std::uint64_t>* storage) {
  const std::size_t stride = (num_words + 1 + 7) / 8 * 8;
  std::uint64_t* base = OffsetWords(storage, num_rows * stride, 0);
  std::vector<const std::uint64_t*> rows;
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::uint64_t* row = base + r * stride + 1;
    for (std::size_t w = 0; w < num_words; ++w) {
      row[w] = r % 5 == 4 ? 0 : r % 7 == 6 ? ~0ULL : rng->Next();
    }
    rows.push_back(row);
  }
  return rows;
}

TEST_P(BitKernelTablesTest, TileMatchesPairwise) {
  Rng rng(909);
  std::vector<std::size_t> word_counts;
  for (std::size_t w = 1; w <= 20; ++w) word_counts.push_back(w);
  word_counts.push_back(64);
  for (const std::size_t num_words : word_counts) {
    std::vector<std::uint64_t> left_storage, right_storage;
    const auto left = TileRows(&rng, 17, num_words, &left_storage);
    const auto right = TileRows(&rng, 17, num_words, &right_storage);
    for (std::size_t num_left = 1; num_left <= 17; ++num_left) {
      for (std::size_t num_right = 1; num_right <= 17; ++num_right) {
        std::vector<std::uint32_t> out(num_left * num_right, 0xABABABAB);
        ops().and_count_tile(left.data(), num_left, right.data(), num_right,
                             num_words, out.data());
        for (std::size_t i = 0; i < num_left; ++i) {
          for (std::size_t j = 0; j < num_right; ++j) {
            std::size_t want = 0;
            for (std::size_t w = 0; w < num_words; ++w) {
              want += static_cast<std::size_t>(
                  std::popcount(left[i][w] & right[j][w]));
            }
            ASSERT_EQ(out[i * num_right + j], want)
                << "words=" << num_words << " tile=" << num_left << "x"
                << num_right << " i=" << i << " j=" << j;
          }
        }
      }
    }
  }
}

TEST_P(BitKernelTablesTest, EmptyTileWritesNothing) {
  Rng rng(910);
  std::vector<std::uint64_t> storage;
  const auto rows = TileRows(&rng, 3, 16, &storage);
  std::uint32_t out = 0xABABABAB;
  ops().and_count_tile(rows.data(), 0, rows.data(), 3, 16, &out);
  ops().and_count_tile(rows.data(), 3, rows.data(), 0, 16, &out);
  EXPECT_EQ(out, 0xABABABABu);
  std::vector<std::uint32_t> zeros(9, 0xABABABAB);
  ops().and_count_tile(rows.data(), 3, rows.data(), 3, 0, zeros.data());
  EXPECT_EQ(zeros, std::vector<std::uint32_t>(9, 0));
}

TEST_P(BitKernelTablesTest, ColumnCountsMatchNaiveAcrossRowCounts) {
  Rng rng(707);
  // 0..40 rows exercises the empty case, the scalar table's per-bit
  // remainder path, one full 15-row carry-save block, and blocks plus
  // remainder.
  for (std::size_t num_rows = 0; num_rows <= 40; ++num_rows) {
    const std::size_t num_words = 9;
    std::vector<std::vector<std::uint64_t>> rows;
    std::vector<const std::uint64_t*> ptrs;
    for (std::size_t r = 0; r < num_rows; ++r) {
      rows.push_back(RandomWords(&rng, num_words));
      ptrs.push_back(rows.back().data());
    }
    std::vector<std::uint32_t> counts(num_words * 64, 0);
    ops().accumulate_column_counts(ptrs.data(), num_rows, 0, num_words,
                                   counts.data());
    for (std::size_t c = 0; c < num_words * 64; ++c) {
      std::uint32_t want = 0;
      for (std::size_t r = 0; r < num_rows; ++r) {
        want += static_cast<std::uint32_t>((rows[r][c / 64] >> (c % 64)) & 1);
      }
      ASSERT_EQ(counts[c], want) << "rows=" << num_rows << " col=" << c;
    }
  }
}

TEST_P(BitKernelTablesTest, ColumnCountsRespectWordRangeAndAccumulate) {
  Rng rng(808);
  const std::size_t num_words = 6;
  std::vector<std::vector<std::uint64_t>> rows;
  std::vector<const std::uint64_t*> ptrs;
  for (std::size_t r = 0; r < 20; ++r) {
    rows.push_back(RandomWords(&rng, num_words));
    ptrs.push_back(rows.back().data());
  }
  // Two disjoint word ranges must partition the full-range result, and
  // counts outside the range must stay untouched (the sharded weight screen
  // depends on both properties).
  std::vector<std::uint32_t> split(num_words * 64, 0);
  ops().accumulate_column_counts(ptrs.data(), rows.size(), 0, 2,
                                 split.data());
  ops().accumulate_column_counts(ptrs.data(), rows.size(), 2, num_words,
                                 split.data());
  std::vector<std::uint32_t> whole(num_words * 64, 0);
  ops().accumulate_column_counts(ptrs.data(), rows.size(), 0, num_words,
                                 whole.data());
  EXPECT_EQ(split, whole);

  std::vector<std::uint32_t> partial(num_words * 64, 0);
  ops().accumulate_column_counts(ptrs.data(), rows.size(), 2, 4,
                                 partial.data());
  for (std::size_t c = 0; c < 2 * 64; ++c) {
    ASSERT_EQ(partial[c], 0u) << "col=" << c;
  }
  for (std::size_t c = 4 * 64; c < num_words * 64; ++c) {
    ASSERT_EQ(partial[c], 0u) << "col=" << c;
  }
}

// `num_rows` rows of `num_words` words, row r starting r % 8 words past a
// 64-byte boundary, so the rows' loads sit at every alignment. `all_ones`
// fills every word with ones, which drives each byte counter of the SIMD
// tables to the row count; otherwise the words are random.
std::vector<const std::uint64_t*> StaggeredRows(
    Rng* rng, std::size_t num_rows, std::size_t num_words, bool all_ones,
    std::vector<std::uint64_t>* storage) {
  const std::size_t stride = (num_words + 8 + 7) / 8 * 8;
  std::uint64_t* base = OffsetWords(storage, num_rows * stride, 0);
  std::vector<const std::uint64_t*> rows;
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::uint64_t* row = base + r * stride + r % 8;
    for (std::size_t w = 0; w < num_words; ++w) {
      row[w] = all_ones ? ~0ULL : rng->Next();
    }
    rows.push_back(row);
  }
  return rows;
}

TEST_P(BitKernelTablesTest, ColumnCountsCrossTheByteFlushes) {
  // Row counts on both sides of the SIMD tables' 255-row widening (255,
  // 256, 510, ...) with all-ones rows, where a counter that is widened one
  // row late wraps to zero; word counts 0-20 and 64 (ragged against the
  // 4- and 8-word blocks); a full range and a sub-range [begin, end), each
  // added into non-zero counts with one guard word past the end.
  constexpr std::size_t kMaxRows = 600;
  constexpr std::size_t kMaxWords = 64;
  std::vector<std::size_t> row_counts;
  for (std::size_t n = 0; n <= 40; ++n) row_counts.push_back(n);
  for (const std::size_t n :
       {127u, 128u, 254u, 255u, 256u, 257u, 300u, 509u, 510u, 511u, 512u,
        599u, 600u}) {
    row_counts.push_back(n);
  }
  std::vector<std::size_t> word_counts;
  for (std::size_t w = 0; w <= 20; ++w) word_counts.push_back(w);
  word_counts.push_back(kMaxWords);
  Rng rng(1111);
  for (const bool all_ones : {true, false}) {
    std::vector<std::uint64_t> storage;
    const auto rows =
        StaggeredRows(&rng, kMaxRows, kMaxWords, all_ones, &storage);
    // want[c] after the first n rows, advanced as n grows.
    std::vector<std::uint32_t> want(kMaxWords * 64, 0);
    std::size_t counted = 0;
    for (const std::size_t num_rows : row_counts) {
      for (; counted < num_rows; ++counted) {
        for (std::size_t c = 0; c < want.size(); ++c) {
          want[c] += static_cast<std::uint32_t>(
              (rows[counted][c / 64] >> (c % 64)) & 1);
        }
      }
      for (const std::size_t num_words : word_counts) {
        for (const std::size_t begin : {std::size_t{0}, num_words / 3}) {
          std::vector<std::uint32_t> counts((num_words + 1) * 64);
          for (std::size_t c = 0; c < counts.size(); ++c) {
            counts[c] = static_cast<std::uint32_t>(c * 7 + 1000);
          }
          ops().accumulate_column_counts(rows.data(), num_rows, begin,
                                         num_words, counts.data());
          for (std::size_t c = 0; c < counts.size(); ++c) {
            const bool inside = c >= begin * 64 && c < num_words * 64;
            const std::uint32_t expect =
                static_cast<std::uint32_t>(c * 7 + 1000) +
                (inside ? want[c] : 0u);
            ASSERT_EQ(counts[c], expect)
                << "ones=" << all_ones << " rows=" << num_rows
                << " words=[" << begin << "," << num_words << ") col=" << c;
          }
        }
      }
    }
  }
}

TEST_P(BitKernelTablesTest, ByteLanesMatchNaive) {
  // Random rows of 0-20 and 64 words, off 64-byte alignment, added to lanes
  // that start non-zero; the lanes past the row stay untouched.
  Rng rng(1212);
  std::vector<std::size_t> word_counts;
  for (std::size_t w = 0; w <= 20; ++w) word_counts.push_back(w);
  word_counts.push_back(64);
  for (const std::size_t num_words : word_counts) {
    std::vector<std::uint64_t> storage;
    const auto rows = StaggeredRows(&rng, 100, num_words, false, &storage);
    std::vector<std::uint8_t> lanes((num_words + 1) * 64);
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      lanes[c] = static_cast<std::uint8_t>(c % 101);
    }
    for (const std::uint64_t* row : rows) {
      ops().add_row_to_byte_lanes(row, num_words, lanes.data());
    }
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      std::size_t want = c % 101;
      if (c < num_words * 64) {
        for (const std::uint64_t* row : rows) {
          want += (row[c / 64] >> (c % 64)) & 1;
        }
      }
      ASSERT_EQ(lanes[c], want) << "words=" << num_words << " lane=" << c;
    }
  }
}

TEST_P(BitKernelTablesTest, ByteLanesHold255RowsThenWiden) {
  // 255 all-ones rows fill every lane to exactly 255; widening those into
  // uint32 weights and zeroing the lanes, as IncrementalColumnWeights does,
  // then counting more rows gives the full count.
  Rng rng(1313);
  constexpr std::size_t kWords = 19;
  const std::vector<std::uint64_t> ones(kWords, ~0ULL);
  std::vector<std::uint8_t> lanes(kWords * 64, 0);
  for (int r = 0; r < 255; ++r) {
    ops().add_row_to_byte_lanes(ones.data(), kWords, lanes.data());
  }
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    ASSERT_EQ(lanes[c], 255u) << "lane=" << c;
  }
  std::vector<std::uint32_t> weights(lanes.begin(), lanes.end());
  std::fill(lanes.begin(), lanes.end(), std::uint8_t{0});
  const auto row = RandomWords(&rng, kWords);
  ops().add_row_to_byte_lanes(ones.data(), kWords, lanes.data());
  ops().add_row_to_byte_lanes(row.data(), kWords, lanes.data());
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    ASSERT_EQ(weights[c] + lanes[c], 256u + ((row[c / 64] >> (c % 64)) & 1))
        << "lane=" << c;
  }
}

TEST_P(BitKernelTablesTest, SelectAtLeastMatchesNaive) {
  // n = 0..100 (ragged against 8- and 16-value vectors), values off 64-byte
  // alignment, floors 0 (all pass), 1, UINT32_MAX (none pass, or all when
  // every value is UINT32_MAX) and values drawn from the data.
  Rng rng(1414);
  constexpr std::uint32_t kMax = UINT32_MAX;
  for (std::size_t n = 0; n <= 100; ++n) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<std::uint32_t> storage(n + 3);
      std::uint32_t* values = storage.data() + 3;
      for (std::size_t k = 0; k < n; ++k) {
        if (kind == 0) {
          values[k] = static_cast<std::uint32_t>(rng.UniformInt(8));
        } else if (kind == 1) {
          values[k] = static_cast<std::uint32_t>(rng.Next());
        } else {
          values[k] = kMax;
        }
      }
      std::vector<std::uint32_t> floors = {0, 1, 2, 5, kMax - 1, kMax};
      if (n > 0) floors.push_back(values[rng.UniformInt(n)]);
      for (const std::uint32_t floor : floors) {
        std::vector<std::uint32_t> want;
        for (std::size_t k = 0; k < n; ++k) {
          if (values[k] >= floor) {
            want.push_back(static_cast<std::uint32_t>(k));
          }
        }
        // One guard past the n entries the kernel may write.
        std::vector<std::uint32_t> out(n + 1, 0xABABABAB);
        const std::size_t kept =
            ops().select_at_least(values, n, floor, out.data());
        ASSERT_EQ(kept, want.size())
            << "n=" << n << " kind=" << kind << " floor=" << floor;
        for (std::size_t i = 0; i < kept; ++i) {
          ASSERT_EQ(out[i], want[i])
              << "n=" << n << " kind=" << kind << " floor=" << floor;
        }
        ASSERT_EQ(out[n], 0xABABABABu) << "n=" << n;
        // All pass at floor 0 and when every value is UINT32_MAX; none
        // pass at UINT32_MAX otherwise.
        if (floor == 0 || kind == 2) {
          EXPECT_EQ(kept, n);
        } else if (floor == kMax) {
          EXPECT_EQ(kept, 0u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTables, BitKernelTablesTest,
                         ::testing::Values("scalar", "avx2", "avx512",
                                           "neon"));

TEST(BitKernelDispatchTest, ForceScalarSelectsScalarTable) {
  EXPECT_STREQ(internal::SelectBitKernels(true).name, "scalar");
}

TEST(BitKernelDispatchTest, DefaultSelectionIsScalarOrSimd) {
  const BitKernelOps& selected = internal::SelectBitKernels(false);
  const std::string_view name = selected.name;
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512" ||
              name == "neon")
      << "unexpected table: " << name;
  // When a SIMD table exists and the host supports it, the non-forced
  // selection must pick the best one; otherwise it must fall back to
  // scalar.
  const auto simd = internal::RunnableSimdBitKernels();
  if (!simd.empty()) {
    EXPECT_EQ(&selected, simd.back());
  } else {
    EXPECT_EQ(&selected, &ScalarBitKernels());
  }
}

TEST(BitKernelDispatchTest, VpopcntdqHostSelectsAvx512) {
#if defined(__x86_64__)
  if (internal::RunnableSimdBitKernels().empty()) {
    GTEST_SKIP() << "no SIMD table in this build or on this host";
  }
  if (!__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("avx512vpopcntdq")) {
    EXPECT_STREQ(internal::SelectBitKernels(false).name, "avx2");
    EXPECT_EQ(RunnableTable("avx512"), nullptr);
    GTEST_SKIP() << "host lacks AVX-512 VPOPCNTDQ";
  }
  EXPECT_STREQ(internal::SelectBitKernels(false).name, "avx512");
  EXPECT_STREQ(internal::SelectBitKernels(true).name, "scalar");
  // Only the tile count differs from the AVX2 table.
  const BitKernelOps* avx2 = RunnableTable("avx2");
  const BitKernelOps& avx512 = internal::SelectBitKernels(false);
  ASSERT_NE(avx2, nullptr);
  EXPECT_EQ(avx512.count_ones, avx2->count_ones);
  EXPECT_EQ(avx512.and_count_columns, avx2->and_count_columns);
  EXPECT_EQ(avx512.select_at_least, avx2->select_at_least);
  EXPECT_NE(avx512.and_count_tile, avx2->and_count_tile);
  EXPECT_EQ(avx512.accumulate_column_counts, avx2->accumulate_column_counts);
  EXPECT_EQ(avx512.add_row_to_byte_lanes, avx2->add_row_to_byte_lanes);
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

TEST(BitKernelDispatchTest, ActiveTableIsStable) {
  EXPECT_EQ(&ActiveBitKernels(), &ActiveBitKernels());
}

}  // namespace
}  // namespace dcs
