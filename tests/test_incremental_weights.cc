// IncrementalColumnWeights (src/analysis/incremental_weights.h) against the
// BitMatrix::ColumnWeights oracle. The accumulator keeps byte-wide counters
// that are widened every 255 rows and on every read, so the row counts below
// run past those boundaries without reading in between, and all-ones rows
// drive every counter to its limit.

#include "analysis/incremental_weights.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/rng.h"

namespace dcs {
namespace {

constexpr std::size_t kMaxRows = 300;

std::vector<BitVector> RandomRows(std::size_t count, std::size_t width,
                                  double fill, Rng* rng) {
  std::vector<BitVector> rows;
  for (std::size_t r = 0; r < count; ++r) {
    BitVector row(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (rng->Bernoulli(fill)) row.Set(i);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Every row count 0..300, each summed from scratch with no read until the
// end: the counts cross the 255-row widening point with nothing else
// flushing the byte counters first.
TEST(IncrementalColumnWeightsTest,
     MatchesOracleAcrossRowCountsWidthsAndFills) {
  Rng rng(17);
  for (const std::size_t width : {1u, 63u, 64u, 65u, 4097u}) {
    for (const double fill : {0.0, 0.25, 0.5, 1.0}) {
      const std::vector<BitVector> rows =
          RandomRows(kMaxRows, width, fill, &rng);
      BitMatrix matrix;
      for (std::size_t n = 0; n <= kMaxRows; ++n) {
        if (n > 0) matrix.AppendRow(rows[n - 1]);
        IncrementalColumnWeights incremental;
        for (std::size_t r = 0; r < n; ++r) incremental.AddRow(rows[r]);
        ASSERT_EQ(incremental.num_rows(), n);
        ASSERT_EQ(incremental.num_cols(), n == 0 ? 0 : width);
        ASSERT_EQ(incremental.weights(), matrix.ColumnWeights())
            << "width=" << width << " fill=" << fill << " rows=" << n;
      }
    }
  }
}

// Reading between rows widens early; the sums must not depend on when.
TEST(IncrementalColumnWeightsTest, ReadsBetweenRowsDoNotChangeTheCounts) {
  Rng rng(23);
  const std::vector<BitVector> rows = RandomRows(kMaxRows, 4097, 0.5, &rng);
  IncrementalColumnWeights incremental;
  BitMatrix matrix;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    incremental.AddRow(rows[r]);
    matrix.AppendRow(rows[r]);
    if (r % 7 == 3 || r == 254 || r == 255) {
      ASSERT_EQ(incremental.weights(), matrix.ColumnWeights())
          << "after row " << r;
    }
  }
  EXPECT_EQ(incremental.weights(), matrix.ColumnWeights());
  // A second read with nothing added is the same vector.
  EXPECT_EQ(incremental.weights(), matrix.ColumnWeights());
}

// A ring slot reuses one accumulator epoch after epoch: Reset() forgets
// rows, pending byte counts and width, and the next epoch may be wider or
// narrower.
TEST(IncrementalColumnWeightsTest, ResetReusesTheAccumulatorAtAnyWidth) {
  Rng rng(29);
  IncrementalColumnWeights incremental;
  for (const std::size_t width : {4097u, 65u, 65u, 1u, 64u, 63u}) {
    const std::vector<BitVector> rows = RandomRows(260, width, 0.25, &rng);
    BitMatrix matrix;
    for (const BitVector& row : rows) {
      incremental.AddRow(row);
      matrix.AppendRow(row);
    }
    ASSERT_EQ(incremental.weights(), matrix.ColumnWeights())
        << "width=" << width;
    // Leave counts pending (no read) before the reset.
    incremental.AddRow(rows.front());
    incremental.Reset();
    EXPECT_EQ(incremental.num_rows(), 0u);
    EXPECT_EQ(incremental.num_cols(), 0u);
    EXPECT_TRUE(incremental.weights().empty());
  }
}

}  // namespace
}  // namespace dcs
