// Differential determinism suite for the pooled aligned-analysis stages:
// DetectInMatrix must return bit-identical results — rows, columns, the
// full weight trajectory, and the stop iteration — for the serial engine
// (no pool) and for pools of 1, 2, and 8 threads. The weight screen and the
// final core scan shard over column slices and merge in ascending order;
// the k-product search between them runs serially (its own tie-breaks are
// pinned in test_aligned_detector.cc). Any divergence here is a scheduling
// leak into the detection output.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "analysis/aligned_detector.h"
#include "analysis/synthetic_matrix.h"

namespace dcs {
namespace {

AlignedDetectorOptions SmallDetectorOptions() {
  AlignedDetectorOptions opts;
  opts.first_iteration_hopefuls = 300;
  opts.hopefuls = 150;
  opts.max_iterations = 30;
  return opts;
}

void ExpectSameDetection(const AlignedDetection& serial,
                         const AlignedDetection& pooled,
                         std::size_t num_threads) {
  EXPECT_EQ(serial.pattern_found, pooled.pattern_found)
      << num_threads << " threads";
  EXPECT_EQ(serial.rows, pooled.rows) << num_threads << " threads";
  EXPECT_EQ(serial.columns, pooled.columns) << num_threads << " threads";
  EXPECT_EQ(serial.weight_trajectory, pooled.weight_trajectory)
      << num_threads << " threads";
  EXPECT_EQ(serial.stop_iteration, pooled.stop_iteration)
      << num_threads << " threads";
}

// Shared fixture owning one pool per tested thread count.
class AlignedParallelTest : public ::testing::Test {
 protected:
  AlignedParallelTest() : pool1_(1), pool2_(2), pool8_(8) {}

  std::vector<ThreadPool*> pools() { return {&pool1_, &pool2_, &pool8_}; }

  ThreadPool pool1_;
  ThreadPool pool2_;
  ThreadPool pool8_;
};

TEST_F(AlignedParallelTest, DetectInMatrixWithCoreScanExpansion) {
  // Pattern columns beyond the screen cutoff force the final core scan to
  // contribute columns, covering the sharded scan's merge too.
  SyntheticAlignedOptions opts;
  opts.m = 120;
  opts.n = 3000;
  opts.n_prime = 150;
  opts.pattern_rows = 50;
  opts.pattern_cols = 40;
  const AlignedDetector serial(SmallDetectorOptions());
  for (std::uint64_t seed = 6; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> pattern_rows;
    std::vector<std::size_t> pattern_cols;
    const BitMatrix matrix =
        SampleLiteralAligned(opts, &rng, &pattern_rows, &pattern_cols);
    const AlignedDetection reference =
        serial.DetectInMatrix(matrix, opts.n_prime);
    ASSERT_TRUE(reference.pattern_found) << "seed " << seed;
    for (ThreadPool* pool : pools()) {
      const AlignedDetector parallel(SmallDetectorOptions(),
                                     AnalysisContext{pool});
      ExpectSameDetection(reference,
                          parallel.DetectInMatrix(matrix, opts.n_prime),
                          pool->num_threads());
    }
  }
}

TEST_F(AlignedParallelTest, TieHeavyScreenedInput) {
  // A handful of rows makes almost every product weight collide, so the
  // total-order tie-breaks (not weights) decide the hopefuls lists.
  const std::size_t m = 12;
  const std::size_t n = 600;
  Rng rng(77);
  BitMatrix matrix(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    BitVector& row = matrix.row(r);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) words[w] = rng.Next();
    if (n % 64 != 0) words[row.num_words() - 1] &= (1ULL << (n % 64)) - 1;
  }
  AlignedDetectorOptions opts = SmallDetectorOptions();
  opts.record_full_trajectory = true;  // Keep iterating through the ties.
  const AlignedDetection reference =
      AlignedDetector(opts).DetectInMatrix(matrix, 128);
  for (ThreadPool* pool : pools()) {
    const AlignedDetector parallel(opts, AnalysisContext{pool});
    ExpectSameDetection(reference, parallel.DetectInMatrix(matrix, 128),
                        pool->num_threads());
  }
}

TEST_F(AlignedParallelTest, DegenerateInputsAreSafeOnPools) {
  for (ThreadPool* pool : pools()) {
    const AlignedDetector detector(SmallDetectorOptions(),
                                   AnalysisContext{pool});
    EXPECT_FALSE(detector.Detect(ScreenedColumns{}).pattern_found);
    BitMatrix tiny(2, 2);
    tiny.Set(0, 0);
    EXPECT_FALSE(detector.DetectInMatrix(tiny, 2).pattern_found);
  }
}

}  // namespace
}  // namespace dcs
