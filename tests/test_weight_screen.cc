#include "analysis/weight_screen.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dcs {
namespace {

TEST(TopKIndicesTest, BasicDescendingSelection) {
  const std::vector<std::uint32_t> values = {5, 9, 1, 7, 9, 3};
  const auto top3 = TopKIndices(values, 3);
  // Two nines (tie broken by lower index first), then the 7.
  EXPECT_EQ(top3, (std::vector<std::size_t>{1, 4, 3}));
}

TEST(TopKIndicesTest, KLargerThanInput) {
  const std::vector<std::uint32_t> values = {2, 1};
  const auto all = TopKIndices(values, 10);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1}));
}

TEST(TopKIndicesTest, KZero) {
  EXPECT_TRUE(TopKIndices({1, 2, 3}, 0).empty());
}

TEST(TopKIndicesTest, AllEqualTiesByIndex) {
  const std::vector<std::uint32_t> values(6, 4);
  EXPECT_EQ(TopKIndices(values, 3), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(TopKIndicesTest, MatchesSortOnRandomInput) {
  Rng rng(3);
  std::vector<std::uint32_t> values(500);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.UniformInt(50));
  const auto top = TopKIndices(values, 40);
  ASSERT_EQ(top.size(), 40u);
  // Verify: every selected value >= every unselected value.
  std::vector<char> selected(values.size(), 0);
  std::uint32_t min_selected = UINT32_MAX;
  for (std::size_t i : top) {
    selected[i] = 1;
    min_selected = std::min(min_selected, values[i]);
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!selected[i]) {
      EXPECT_LE(values[i], min_selected);
    }
  }
  // And descending order.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(values[top[i - 1]], values[top[i]]);
  }
}

TEST(ScreenHeaviestColumnsTest, SelectsHeaviest) {
  BitMatrix matrix(4, 6);
  // Column weights: c0=4, c1=1, c2=3, c3=0, c4=2, c5=3.
  for (std::size_t r = 0; r < 4; ++r) matrix.Set(r, 0);
  matrix.Set(0, 1);
  for (std::size_t r = 0; r < 3; ++r) matrix.Set(r, 2);
  matrix.Set(1, 4);
  matrix.Set(2, 4);
  for (std::size_t r = 1; r < 4; ++r) matrix.Set(r, 5);

  const ScreenedColumns screened = ScreenHeaviestColumns(matrix, 3);
  EXPECT_EQ(screened.original_ids, (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_EQ(screened.weights, (std::vector<std::uint32_t>{4, 3, 3}));
  EXPECT_EQ(screened.num_rows, 4u);
  EXPECT_EQ(screened.num_source_columns, 6u);
  // Extracted bits match the matrix columns.
  for (std::size_t i = 0; i < screened.columns.size(); ++i) {
    EXPECT_TRUE(screened.columns[i] ==
                matrix.ExtractColumn(screened.original_ids[i]));
  }
}

TEST(ScreenHeaviestColumnsTest, NPrimeBeyondWidthTakesAll) {
  BitMatrix matrix(2, 3);
  matrix.Set(0, 1);
  const ScreenedColumns screened = ScreenHeaviestColumns(matrix, 10);
  EXPECT_EQ(screened.columns.size(), 3u);
}

// Brute-force oracle: every column id, sorted by (weight desc, id asc).
std::vector<std::size_t> SortOracle(const std::vector<std::uint32_t>& weights,
                                    std::size_t n_prime) {
  std::vector<std::size_t> ids(weights.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] != weights[b] ? weights[a] > weights[b] : a < b;
  });
  ids.resize(std::min(n_prime, ids.size()));
  return ids;
}

BitMatrix RandomBernoulliMatrix(std::size_t rows, std::size_t cols,
                                Rng* rng) {
  BitMatrix matrix(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    BitVector& row = matrix.row(r);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) words[w] = rng->Next();
    if (cols % 64 != 0) {  // Bulk ops assume zero padding bits.
      words[row.num_words() - 1] &= (1ULL << (cols % 64)) - 1;
    }
  }
  return matrix;
}

void ExpectScreenMatchesOracle(const BitMatrix& matrix, std::size_t n_prime) {
  const std::vector<std::uint32_t> weights = matrix.ColumnWeights();
  const std::vector<std::size_t> oracle = SortOracle(weights, n_prime);
  const ScreenedColumns screened = ScreenHeaviestColumns(matrix, n_prime);
  ASSERT_EQ(screened.original_ids, oracle);
  ASSERT_EQ(screened.columns.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(screened.weights[i], weights[oracle[i]]);
    EXPECT_TRUE(screened.columns[i] == matrix.ExtractColumn(oracle[i]));
  }
}

TEST(ScreenHeaviestColumnsTest, ShardedScreenMatchesSortOracle) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const BitMatrix matrix = RandomBernoulliMatrix(48, 1200, &rng);
    for (const std::size_t n_prime : {1u, 150u, 1200u, 5000u}) {
      ExpectScreenMatchesOracle(matrix, n_prime);
    }
  }
}

TEST(ScreenHeaviestColumnsTest, TieHeavyScreenMatchesSortOracle) {
  // Three rows -> column weights in {0..3}: the cutoff weight is shared by
  // hundreds of columns, so the id tie-break does all the work.
  Rng rng(99);
  const BitMatrix matrix = RandomBernoulliMatrix(3, 2048, &rng);
  for (const std::size_t n_prime : {100u, 700u, 2000u}) {
    ExpectScreenMatchesOracle(matrix, n_prime);
  }
}

TEST(ScreenHeaviestColumnsTest, HotScreenEqualsColdScreen) {
  // Precomputed weights skip the weight pass; the selection and the
  // extraction must not notice. Three rows put every weight in {0..3}, so
  // the id tie-break decides each cut.
  Rng rng(31);
  for (const std::size_t width : {1u, 63u, 65u, 1000u}) {
    const BitMatrix matrix = RandomBernoulliMatrix(3, width, &rng);
    const std::vector<std::uint32_t> weights = matrix.ColumnWeights();
    for (const std::size_t n_prime : {std::size_t{1}, width / 2 + 1,
                                      width + 3}) {
      const ScreenedColumns cold = ScreenHeaviestColumns(matrix, n_prime);
      const ScreenedColumns hot =
          ScreenHeaviestColumns(matrix, n_prime, &weights);
      EXPECT_EQ(hot.original_ids, cold.original_ids)
          << "width " << width << " n' " << n_prime;
      EXPECT_EQ(hot.weights, cold.weights)
          << "width " << width << " n' " << n_prime;
      ASSERT_EQ(hot.columns.size(), cold.columns.size());
      for (std::size_t i = 0; i < cold.columns.size(); ++i) {
        EXPECT_TRUE(hot.columns[i] == cold.columns[i])
            << "width " << width << " n' " << n_prime << " column " << i;
      }
      EXPECT_EQ(hot.num_rows, cold.num_rows);
      EXPECT_EQ(hot.num_source_columns, cold.num_source_columns);
    }
  }
}

TEST(ScreenHeaviestColumnsTest, EmptyMatrix) {
  const ScreenedColumns screened = ScreenHeaviestColumns(BitMatrix(), 10);
  EXPECT_TRUE(screened.columns.empty());
  EXPECT_EQ(screened.num_source_columns, 0u);
}

}  // namespace
}  // namespace dcs
