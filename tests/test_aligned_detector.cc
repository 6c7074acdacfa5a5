#include "analysis/aligned_detector.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/aligned_thresholds.h"
#include "analysis/synthetic_matrix.h"
#include "analysis/weight_screen.h"
#include "common/bit_matrix.h"
#include "common/hash.h"
#include "common/rng.h"

namespace dcs {
namespace {

AlignedDetectorOptions SmallDetectorOptions() {
  AlignedDetectorOptions opts;
  opts.first_iteration_hopefuls = 300;
  opts.hopefuls = 150;
  opts.max_iterations = 30;
  return opts;
}

// A comfortable planted instance: 40 of 200 routers, 14 packets, screen of
// 300 out of 20,000 columns.
SyntheticAlignedOptions PlantedCase() {
  SyntheticAlignedOptions opts;
  opts.m = 200;
  opts.n = 20000;
  opts.n_prime = 300;
  opts.pattern_rows = 40;
  opts.pattern_cols = 14;
  return opts;
}

TEST(AlignedDetectorTest, DetectsPlantedPattern) {
  AlignedDetector detector(SmallDetectorOptions());
  int detected = 0;
  int trials = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const SyntheticScreened s = SampleScreenedAligned(PlantedCase(), &rng);
    ++trials;
    const AlignedDetection detection = detector.Detect(s.screened);
    if (!detection.pattern_found) continue;
    ++detected;
    // Reported rows must be mostly true pattern rows.
    std::size_t true_rows = 0;
    for (std::uint32_t r : detection.rows) {
      if (std::binary_search(s.pattern_rows.begin(), s.pattern_rows.end(),
                             r)) {
        ++true_rows;
      }
    }
    EXPECT_GE(true_rows * 10, detection.rows.size() * 9)
        << "seed " << seed << ": rows are mostly genuine";
    EXPECT_GE(detection.rows.size(), 30u);
  }
  EXPECT_GE(detected, 4) << "detected " << detected << "/" << trials;
}

TEST(AlignedDetectorTest, NoFalsePositiveOnPureNoise) {
  SyntheticAlignedOptions opts = PlantedCase();
  opts.pattern_rows = 0;
  opts.pattern_cols = 0;
  AlignedDetector detector(SmallDetectorOptions());
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    Rng rng(seed);
    const SyntheticScreened s = SampleScreenedAligned(opts, &rng);
    const AlignedDetection detection = detector.Detect(s.screened);
    EXPECT_FALSE(detection.pattern_found) << "seed " << seed;
  }
}

TEST(AlignedDetectorTest, WeightTrajectoryShowsFlattenThenDive) {
  AlignedDetectorOptions opts = SmallDetectorOptions();
  opts.record_full_trajectory = true;
  AlignedDetector detector(opts);
  Rng rng(3);
  const SyntheticScreened s = SampleScreenedAligned(PlantedCase(), &rng);
  const AlignedDetection detection = detector.Detect(s.screened);
  const auto& w = detection.weight_trajectory;
  ASSERT_GE(w.size(), 6u);
  // Initial drop is steep (noise halving).
  EXPECT_LT(static_cast<double>(w[1]),
            0.8 * static_cast<double>(w[0]) + 1.0);
  // Around the best iteration the curve has flattened: the loss per
  // iteration is small relative to the early halving.
  const std::size_t best = detection.best_iteration;  // b' value.
  ASSERT_GE(best, 3u);
  const std::size_t idx = best - 2;  // Trajectory index of iteration b'.
  ASSERT_GT(idx, 0u);
  ASSERT_LT(idx, w.size());
  EXPECT_GT(static_cast<double>(w[idx]),
            0.8 * static_cast<double>(w[idx - 1]));
}

TEST(AlignedDetectorTest, BestIterationTracksPatternColumnsInScreen) {
  // The reported product should have within a couple of columns of the
  // number of planted columns that survived the screen (15 in the paper's
  // Fig 7 example).
  AlignedDetector detector(SmallDetectorOptions());
  Rng rng(4);
  const SyntheticScreened s = SampleScreenedAligned(PlantedCase(), &rng);
  const AlignedDetection detection = detector.Detect(s.screened);
  ASSERT_TRUE(detection.pattern_found);
  const auto in_screen =
      static_cast<std::int64_t>(s.pattern_columns_in_screen);
  EXPECT_NEAR(static_cast<double>(detection.best_iteration),
              static_cast<double>(in_screen), 2.5);
}

TEST(AlignedDetectorTest, ReportedColumnsAreScreenedPatternColumns) {
  AlignedDetector detector(SmallDetectorOptions());
  Rng rng(5);
  const SyntheticScreened s = SampleScreenedAligned(PlantedCase(), &rng);
  const AlignedDetection detection = detector.Detect(s.screened);
  ASSERT_TRUE(detection.pattern_found);
  // Synthetic ids: pattern columns occupy [0, b).
  std::size_t genuine = 0;
  for (std::size_t c : detection.columns) {
    if (c < PlantedCase().pattern_cols) ++genuine;
  }
  EXPECT_GE(genuine * 10, detection.columns.size() * 8);
}

// The search keeps the top-H of each pass under a total order (weight desc,
// then column ids asc), so its trajectory is a pure function of the
// screened columns. These cases pin it — through every iteration, on pure
// noise, on a planted pattern, and on input where almost every product
// weight ties — to the values the engine has always produced, and pin
// where the evidence stop ends the pure-noise runs.

TEST(AlignedDetectorTest, PureNoiseTrajectoryIsPinned) {
  SyntheticAlignedOptions opts;
  opts.m = 150;
  opts.n = 10000;
  opts.n_prime = 250;
  const std::vector<std::vector<std::size_t>> expected = {
      {73, 52, 42, 33, 27, 22, 19, 17, 15, 14, 13, 12, 11, 10, 10,
       9,  8,  8,  8,  7,  7,  7,  7,  6,  6,  6,  6,  6,  6},
      {68, 51, 38, 31, 26, 22, 20, 17, 15, 13, 12, 11, 11, 10, 9,
       9,  8,  8,  8,  7,  7,  7,  7,  7,  6,  6,  6,  6,  6},
      {67, 50, 39, 30, 26, 22, 20, 17, 14, 13, 12, 11, 10, 10, 9,
       9,  8,  8,  8,  8,  7,  7,  7,  7,  7,  6,  6,  6,  6},
  };
  const std::size_t expected_best[] = {12, 8, 8};
  // Without the full trajectory the search stops on evidence, three
  // iterations after its best bound: at b' = 15, 11, 11.
  const std::size_t expected_stopped_length[] = {14, 10, 10};
  AlignedDetectorOptions full_opts = SmallDetectorOptions();
  full_opts.record_full_trajectory = true;
  const AlignedDetector full(full_opts);
  const AlignedDetector early(SmallDetectorOptions());
  for (std::uint64_t seed = 20; seed <= 22; ++seed) {
    Rng rng(seed);
    const SyntheticScreened s = SampleScreenedAligned(opts, &rng);
    const AlignedDetection detection = full.Detect(s.screened);
    EXPECT_FALSE(detection.pattern_found) << "seed " << seed;
    EXPECT_EQ(detection.weight_trajectory, expected[seed - 20])
        << "seed " << seed;
    EXPECT_EQ(detection.best_iteration, expected_best[seed - 20])
        << "seed " << seed;

    const AlignedDetection stopped = early.Detect(s.screened);
    EXPECT_FALSE(stopped.pattern_found) << "seed " << seed;
    const auto& want = expected[seed - 20];
    EXPECT_EQ(stopped.weight_trajectory,
              std::vector<std::size_t>(
                  want.begin(),
                  want.begin() + static_cast<std::ptrdiff_t>(
                                     expected_stopped_length[seed - 20])))
        << "seed " << seed;
    EXPECT_EQ(stopped.best_iteration, expected_best[seed - 20])
        << "seed " << seed;
  }
}

TEST(AlignedDetectorTest, FullTrajectoryIsPinned) {
  // record_full_trajectory runs every iteration up to the cap.
  AlignedDetectorOptions opts = SmallDetectorOptions();
  opts.record_full_trajectory = true;
  Rng rng(3);
  const SyntheticScreened s = SampleScreenedAligned(PlantedCase(), &rng);
  const AlignedDetection detection = AlignedDetector(opts).Detect(s.screened);
  ASSERT_TRUE(detection.pattern_found);
  EXPECT_EQ(detection.weight_trajectory,
            (std::vector<std::size_t>{89, 69, 59, 53, 48, 46, 44, 42, 42, 41,
                                      40, 32, 26, 22, 19, 17, 15, 13, 12, 11,
                                      10, 10, 9,  9,  8,  8,  8,  7,  7}));
  EXPECT_EQ(detection.best_iteration, 12u);
  EXPECT_EQ(detection.columns,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(detection.rows,
            (std::vector<std::uint32_t>{
                2,   10,  19,  20,  33,  35,  41,  52,  66,  69,
                70,  87,  89,  93,  94,  103, 108, 111, 114, 116,
                119, 120, 127, 131, 141, 157, 159, 160, 164, 166,
                169, 170, 172, 177, 182, 186, 188, 194, 195, 196}));
}

TEST(AlignedDetectorTest, TieHeavyTrajectoryIsPinned) {
  // Twelve rows make almost every product weight collide, so the total
  // order's column-id tie-breaks decide the hopefuls lists.
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
  const AlignedDetector detector(opts);
  const AlignedDetection detection = detector.DetectInMatrix(matrix, 128);
  EXPECT_FALSE(detection.pattern_found);
  EXPECT_EQ(detection.weight_trajectory,
            (std::vector<std::size_t>{10, 9, 9, 8, 8, 7, 7, 7, 7, 7,
                                      7,  7, 6, 6, 6, 6, 6, 5, 5, 5,
                                      5,  5, 5, 5, 5, 5, 5, 5, 5}));
  EXPECT_EQ(detection.best_iteration, 2u);
  const AlignedDetection again = detector.DetectInMatrix(matrix, 128);
  EXPECT_EQ(again.weight_trajectory, detection.weight_trajectory);
  EXPECT_EQ(again.best_iteration, detection.best_iteration);
}

TEST(AlignedDetectorTest, DegenerateInputsAreSafe) {
  AlignedDetector detector(SmallDetectorOptions());
  ScreenedColumns empty;
  EXPECT_FALSE(detector.Detect(empty).pattern_found);
  ScreenedColumns one;
  one.num_rows = 10;
  one.num_source_columns = 1;
  one.columns.push_back(BitVector(10));
  one.weights.push_back(0);
  one.original_ids.push_back(0);
  EXPECT_FALSE(detector.Detect(one).pattern_found);
  BitMatrix tiny(2, 2);
  tiny.Set(0, 0);
  EXPECT_FALSE(detector.DetectInMatrix(tiny, 2).pattern_found);
}

TEST(AlignedDetectorTest, DetectInMatrixExpandsBeyondScreen) {
  // Literal small matrix: pattern columns below the screen cutoff must be
  // recovered by the final core scan (Fig 6 lines 10-14).
  SyntheticAlignedOptions opts;
  opts.m = 120;
  opts.n = 3000;
  opts.n_prime = 150;
  opts.pattern_rows = 50;
  opts.pattern_cols = 40;  // Plenty; many will miss the screen.
  Rng rng(6);
  std::vector<std::uint32_t> pattern_rows;
  std::vector<std::size_t> pattern_cols;
  const BitMatrix matrix =
      SampleLiteralAligned(opts, &rng, &pattern_rows, &pattern_cols);

  AlignedDetectorOptions detector_opts = SmallDetectorOptions();
  AlignedDetector detector(detector_opts);
  const AlignedDetection detection = detector.DetectInMatrix(matrix, 150);
  ASSERT_TRUE(detection.pattern_found);
  // The expansion should recover the large majority of all 40 planted
  // columns, including those outside the 150-column screen.
  std::size_t recovered = 0;
  for (std::size_t c : pattern_cols) {
    if (std::binary_search(detection.columns.begin(),
                           detection.columns.end(), c)) {
      ++recovered;
    }
  }
  EXPECT_GE(recovered, 30u);
}

// Literal m x n matrix of Bernoulli(fill) noise with a pattern_rows x
// pattern_cols all-1 block at random rows and columns. fill is 1/2 or 1/4
// (one random word, or the AND of two).
BitMatrix PlantedAtFill(std::size_t m, std::size_t n, double fill,
                        std::size_t pattern_rows, std::size_t pattern_cols,
                        Rng* rng, std::vector<std::size_t>* planted_cols) {
  BitMatrix matrix(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    std::uint64_t* words = matrix.row(r).mutable_words();
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
      words[w] = fill == 0.5 ? rng->Next() : rng->Next() & rng->Next();
    }
  }
  std::vector<std::size_t> rows(m);
  std::vector<std::size_t> cols(n);
  for (std::size_t i = 0; i < m; ++i) rows[i] = i;
  for (std::size_t i = 0; i < n; ++i) cols[i] = i;
  for (std::size_t i = 0; i < pattern_rows; ++i) {
    std::swap(rows[i], rows[i + rng->UniformInt(m - i)]);
  }
  for (std::size_t i = 0; i < pattern_cols; ++i) {
    std::swap(cols[i], cols[i + rng->UniformInt(n - i)]);
  }
  planted_cols->assign(
      cols.begin(), cols.begin() + static_cast<std::ptrdiff_t>(pattern_cols));
  std::sort(planted_cols->begin(), planted_cols->end());
  for (std::size_t i = 0; i < pattern_rows; ++i) {
    for (std::size_t c : *planted_cols) matrix.Set(rows[i], c);
  }
  return matrix;
}

TEST(AlignedDetectorTest, CoreScanReportsEveryPlantedColumn) {
  // Fig 6 scans "the remaining columns" against the core, screened or not,
  // so column recall is not capped by the search's iteration budget
  // (the default max_iterations = 40): every planted column is reported,
  // for patterns narrower and far wider than that budget. 40 of 100 rows
  // carry the pattern; 8192 columns are screened to 256. A budget of 30
  // lets the ½-fill core take up more noise rows than gamma absorbs; that
  // is the row side of the detector, not the column scan.
  AlignedDetectorOptions options = SmallDetectorOptions();
  options.max_iterations = AlignedDetectorOptions{}.max_iterations;
  AlignedDetector detector(options);
  for (const double fill : {0.25, 0.5}) {
    for (const std::size_t width : {20u, 60u, 120u}) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed * 7919 + width);
        std::vector<std::size_t> planted;
        const BitMatrix matrix =
            PlantedAtFill(100, 8192, fill, 40, width, &rng, &planted);
        const AlignedDetection detection = detector.DetectInMatrix(matrix, 256);
        ASSERT_TRUE(detection.pattern_found)
            << "fill " << fill << " width " << width << " seed " << seed;
        EXPECT_TRUE(std::includes(detection.columns.begin(),
                                  detection.columns.end(), planted.begin(),
                                  planted.end()))
            << "fill " << fill << " width " << width << " seed " << seed
            << ": " << detection.columns.size() << " columns reported";
      }
    }
  }
}

// Where the evidence stop ends a search whose heaviest products weighed
// `trajectory` (index 0 is b' = 2): the first b' closing three iterations
// in a row that brought no lower natural-occurrence bound than the best so
// far and whose heaviest product lost weight, or held one that could not
// beat that bound at the next b' or at the last one the budget allows.
// 0 when the search runs on.
std::size_t EvidenceStopIteration(const ScreenedColumns& screened,
                                  const std::vector<std::size_t>& trajectory,
                                  std::size_t max_iterations) {
  const auto m = static_cast<std::int64_t>(screened.num_rows);
  const auto n = static_cast<std::int64_t>(screened.columns.size());
  double density_sum = 0.0;
  for (std::uint32_t w : screened.weights) density_sum += w;
  const double density = std::clamp(
      density_sum / (static_cast<double>(n) * static_cast<double>(m)), 0.5,
      0.999);
  const auto bound = [&](std::size_t weight, std::size_t b) {
    return LogNaturalOccurrenceBoundDensity(
        m, n, static_cast<std::int64_t>(weight), static_cast<std::int64_t>(b),
        density);
  };
  const std::size_t last_b =
      std::min<std::size_t>(max_iterations, static_cast<std::size_t>(n));
  double best = bound(trajectory[0], 2);
  std::size_t streak = 0;
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    const std::size_t b = i + 2;
    const std::size_t w = trajectory[i];
    if (bound(w, b) < best) {
      best = bound(w, b);
      streak = 0;
      continue;
    }
    const bool hopeless = bound(w, std::min(b + 1, last_b)) >= best &&
                          bound(w, last_b) >= best;
    streak = w < trajectory[i - 1] || hopeless ? streak + 1 : 0;
    if (streak == 3) return b;
  }
  return 0;
}

// The k-product search as it stood before the flat rewrite, kept as the
// oracle for FlatSearchEqualsTheReferenceSearch: one BitVector and one
// column vector per product, a bounded heap per pass, and the column-weight
// prunes. Only the arithmetic differs from that engine's code — one
// BitVector::CommonOnes per candidate instead of batched kernel calls, and
// a word-AND loop for each product, which compute the same values — the
// metrics are gone, and it stops where EvidenceStopIteration says, unless
// the full trajectory is recorded.
namespace reference {

struct Product {
  BitVector bits;
  std::vector<std::uint32_t> cols;  // Indices into the screened set, sorted.
  std::uint32_t weight = 0;
};

struct Cand {
  std::uint32_t weight = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

bool CandBetter(const Cand& x, const Cand& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

class TopH {
 public:
  explicit TopH(std::size_t capacity) : capacity_(capacity) {}

  void Offer(const Cand& cand) {
    if (heap_.size() < capacity_) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end(), CandBetter);
    } else if (CandBetter(cand, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), CandBetter);
      heap_.back() = cand;
      std::push_heap(heap_.begin(), heap_.end(), CandBetter);
    }
  }

  std::uint32_t floor_weight() const {
    return heap_.size() < capacity_ ? 1 : heap_.front().weight;
  }

  std::vector<Cand> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), CandBetter);
    return std::move(heap_);
  }

 private:
  std::size_t capacity_;
  std::vector<Cand> heap_;
};

// a & b, word by word.
BitVector And(const BitVector& a, const BitVector& b) {
  BitVector product = a;
  std::uint64_t* words = product.mutable_words();
  for (std::size_t w = 0; w < product.num_words(); ++w) {
    words[w] &= b.words()[w];
  }
  return product;
}

std::uint64_t ColumnSetFingerprint(const std::vector<std::uint32_t>& cols) {
  std::uint64_t h = 0x5EAFC0DE;
  for (std::uint32_t c : cols) h = HashCombine(h, Mix64(c + 1));
  return h;
}

AlignedDetection Detect(const AlignedDetectorOptions& options,
                        const ScreenedColumns& screened) {
  AlignedDetection detection;
  const std::size_t n_cols = screened.columns.size();
  const std::size_t m = screened.num_rows;
  if (n_cols < 2 || m == 0) return detection;

  TopH pair_heap(options.first_iteration_hopefuls);
  for (std::size_t i = 0; i < n_cols; ++i) {
    const BitVector& ci = screened.columns[i];
    const std::uint32_t wi = screened.weights[i];
    for (std::size_t j = i + 1; j < n_cols; ++j) {
      if (std::min(wi, screened.weights[j]) < pair_heap.floor_weight()) {
        continue;
      }
      const auto weight =
          static_cast<std::uint32_t>(ci.CommonOnes(screened.columns[j]));
      if (weight >= pair_heap.floor_weight()) {
        pair_heap.Offer({weight, static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
      }
    }
  }
  const std::vector<Cand> pair_cands = pair_heap.TakeSorted();

  std::vector<Product> hopefuls;
  hopefuls.reserve(pair_cands.size());
  for (const Cand& cand : pair_cands) {
    Product product;
    product.bits = And(screened.columns[cand.a], screened.columns[cand.b]);
    product.cols = {cand.a, cand.b};
    product.weight = cand.weight;
    hopefuls.push_back(std::move(product));
  }
  if (hopefuls.empty()) return detection;
  detection.weight_trajectory.push_back(hopefuls.front().weight);

  double density_sum = 0.0;
  for (std::uint32_t w : screened.weights) density_sum += w;
  const double density = std::clamp(
      density_sum / (static_cast<double>(n_cols) * static_cast<double>(m)),
      0.5, 0.999);
  auto significance = [&](const Product& p) {
    return LogNaturalOccurrenceBoundDensity(
        static_cast<std::int64_t>(m), static_cast<std::int64_t>(n_cols),
        static_cast<std::int64_t>(p.weight),
        static_cast<std::int64_t>(p.cols.size()), density);
  };
  Product best_product = hopefuls.front();
  double best_log_bound = significance(best_product);
  std::size_t best_iteration = 2;

  for (std::size_t iter = 3; iter <= options.max_iterations; ++iter) {
    TopH heap(options.hopefuls);
    for (std::size_t h = 0; h < hopefuls.size(); ++h) {
      const Product& v = hopefuls[h];
      if (v.weight < heap.floor_weight()) continue;
      for (std::uint32_t c = 0; c < n_cols; ++c) {
        if (std::binary_search(v.cols.begin(), v.cols.end(), c)) continue;
        if (std::min(v.weight, screened.weights[c]) < heap.floor_weight()) {
          continue;
        }
        const auto weight =
            static_cast<std::uint32_t>(v.bits.CommonOnes(screened.columns[c]));
        if (weight >= heap.floor_weight()) {
          heap.Offer({weight, static_cast<std::uint32_t>(h), c});
        }
      }
    }

    const std::vector<Cand> ext_cands = heap.TakeSorted();
    std::vector<Product> next;
    next.reserve(ext_cands.size());
    std::unordered_set<std::uint64_t> seen;
    for (const Cand& cand : ext_cands) {
      const Product& parent = hopefuls[cand.a];
      std::vector<std::uint32_t> cols = parent.cols;
      cols.insert(std::lower_bound(cols.begin(), cols.end(), cand.b),
                  cand.b);
      if (!seen.insert(ColumnSetFingerprint(cols)).second) continue;
      Product product;
      product.bits = And(parent.bits, screened.columns[cand.b]);
      product.cols = std::move(cols);
      product.weight = cand.weight;
      next.push_back(std::move(product));
    }
    if (next.empty()) break;
    hopefuls = std::move(next);

    detection.weight_trajectory.push_back(hopefuls.front().weight);
    const double log_bound = significance(hopefuls.front());
    if (log_bound < best_log_bound) {
      best_log_bound = log_bound;
      best_product = hopefuls.front();
      best_iteration = iter;
    }
    if (!options.record_full_trajectory &&
        EvidenceStopIteration(screened, detection.weight_trajectory,
                              options.max_iterations) == iter) {
      break;
    }
  }

  detection.best_iteration = best_iteration;
  if (best_log_bound > std::log(options.nno_epsilon)) return detection;
  detection.pattern_found = true;
  std::vector<std::size_t> set_rows;
  best_product.bits.AppendSetBits(&set_rows);
  detection.rows.assign(set_rows.begin(), set_rows.end());
  for (std::uint32_t c : best_product.cols) {
    detection.columns.push_back(screened.original_ids[c]);
  }
  std::sort(detection.columns.begin(), detection.columns.end());
  return detection;
}

// Fig 6 lines 10-14 by definition: every matrix column sharing at least
// weight(core) - gamma ones with the core rows, ascending.
std::vector<std::size_t> CoreScan(const BitMatrix& matrix,
                                  const std::vector<std::uint32_t>& rows,
                                  std::uint32_t gamma) {
  const std::size_t thresh = rows.size() > gamma ? rows.size() - gamma : 1;
  std::vector<std::size_t> columns;
  for (std::size_t c = 0; c < matrix.cols(); ++c) {
    std::size_t common = 0;
    for (std::uint32_t r : rows) common += matrix.Test(r, c) ? 1u : 0u;
    if (common >= thresh) columns.push_back(c);
  }
  return columns;
}

}  // namespace reference

void ExpectSameDetection(const AlignedDetection& got,
                         const AlignedDetection& want,
                         const std::string& label) {
  EXPECT_EQ(got.pattern_found, want.pattern_found) << label;
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_EQ(got.columns, want.columns) << label;
  EXPECT_EQ(got.weight_trajectory, want.weight_trajectory) << label;
  EXPECT_EQ(got.best_iteration, want.best_iteration) << label;
}

TEST(AlignedDetectorTest, FlatSearchEqualsTheReferenceSearch) {
  // One to three words per column, both fills, clean and planted, with and
  // without the full trajectory. A 12-column screen never fills the pair
  // pass's top-H; a 160-column one cuts its buffer many times per pass.
  std::size_t found = 0;
  std::size_t runs = 0;
  for (const std::size_t m : {12u, 64u, 65u, 100u, 128u, 129u, 150u}) {
    for (const double fill : {0.25, 0.5}) {
      for (const bool planted : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          Rng rng(seed * 1009 + m);
          std::vector<std::size_t> planted_cols;
          const BitMatrix matrix =
              PlantedAtFill(m, 2048, fill, planted ? m * 2 / 5 : 0,
                            planted ? 24 : 0, &rng, &planted_cols);
          for (const std::size_t n_prime : {12u, 160u}) {
            const ScreenedColumns screened =
                ScreenHeaviestColumns(matrix, n_prime);
            for (const bool full : {false, true}) {
              AlignedDetectorOptions opts = SmallDetectorOptions();
              opts.first_iteration_hopefuls = 160;
              opts.hopefuls = 48;
              opts.record_full_trajectory = full;
              const std::string label =
                  "m=" + std::to_string(m) + " fill=" + std::to_string(fill) +
                  " planted=" + std::to_string(planted) +
                  " seed=" + std::to_string(seed) +
                  " n'=" + std::to_string(n_prime) +
                  " full=" + std::to_string(full);
              const AlignedDetection want =
                  reference::Detect(opts, screened);
              ExpectSameDetection(AlignedDetector(opts).Detect(screened),
                                  want, label);
              found += want.pattern_found ? 1 : 0;
              ++runs;
              if (n_prime != 160 || seed > 2) continue;
              // The whole refined pipeline: the screen and the core scan
              // around the search.
              AlignedDetection want_in_matrix = want;
              if (want.pattern_found) {
                want_in_matrix.columns =
                    reference::CoreScan(matrix, want.rows, opts.gamma);
              }
              ExpectSameDetection(
                  AlignedDetector(opts).DetectInMatrix(matrix, n_prime),
                  want_in_matrix, label + " DetectInMatrix");
            }
          }
        }
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(found, 0u);
  EXPECT_LT(found, runs);
}

TEST(AlignedDetectorTest, EvidenceStopIsAPrefixOfTheFullRun) {
  // Stopping on evidence only cuts the search short. Its trajectory is a
  // prefix of the full run's, and it ends exactly where
  // EvidenceStopIteration places the stop on the full trajectory, unless it
  // reached the cap or ran out of extensions first. On planted inputs it
  // reports what the full run reports. 40 of 100 rows carry a 12- or
  // 20-column pattern, narrower than the 30-iteration budget, so the stop
  // cuts planted searches too.
  const AlignedDetectorOptions early_opts = SmallDetectorOptions();
  AlignedDetectorOptions full_opts = early_opts;
  full_opts.record_full_trajectory = true;
  const AlignedDetector early(early_opts);
  const AlignedDetector full(full_opts);
  std::size_t stopped_clean = 0;
  std::size_t stopped_planted = 0;
  std::size_t found = 0;
  for (const double fill : {0.25, 0.5}) {
    for (const std::size_t width : {0u, 12u, 20u}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 131 + width);
        std::vector<std::size_t> planted_cols;
        const BitMatrix matrix = PlantedAtFill(
            100, 4096, fill, width == 0 ? 0 : 40, width, &rng, &planted_cols);
        const ScreenedColumns screened = ScreenHeaviestColumns(matrix, 200);
        const std::string label = "fill=" + std::to_string(fill) +
                                  " width=" + std::to_string(width) +
                                  " seed=" + std::to_string(seed);
        const AlignedDetection stopped = early.Detect(screened);
        const AlignedDetection whole = full.Detect(screened);
        const auto& e = stopped.weight_trajectory;
        const auto& f = whole.weight_trajectory;
        ASSERT_FALSE(e.empty()) << label;
        ASSERT_LE(e.size(), f.size()) << label;
        EXPECT_TRUE(std::equal(e.begin(), e.end(), f.begin())) << label;
        // Iteration b' has weight e[b' - 2]; the last one run is e.size() + 1.
        const std::size_t last = e.size() + 1;
        const std::size_t stop =
            EvidenceStopIteration(screened, f, early_opts.max_iterations);
        if (e.size() < f.size()) {
          EXPECT_EQ(last, stop) << label;
          ++(width == 0 ? stopped_clean : stopped_planted);
        } else {
          // The cap or the last extension came first.
          EXPECT_TRUE(stop == 0 || stop >= last) << label << " stop " << stop;
        }
        ASSERT_LE(stopped.best_iteration, last) << label;
        if (whole.best_iteration <= last) {
          EXPECT_EQ(stopped.best_iteration, whole.best_iteration) << label;
        }
        if (width == 0) continue;
        EXPECT_EQ(stopped.pattern_found, whole.pattern_found) << label;
        EXPECT_EQ(stopped.rows, whole.rows) << label;
        EXPECT_EQ(stopped.columns, whole.columns) << label;
        found += whole.pattern_found ? 1 : 0;
      }
    }
  }
  EXPECT_GT(stopped_clean, 0u);
  EXPECT_GT(stopped_planted, 0u);
  EXPECT_GT(found, 0u);
}

TEST(AlignedDetectorTest, CoreScanOfTheLiteralPatternIsTheDefinition) {
  // Pattern columns beyond the screen cutoff make the core scan contribute
  // columns; it must report exactly the columns Fig 6 defines.
  SyntheticAlignedOptions opts;
  opts.m = 120;
  opts.n = 3000;
  opts.n_prime = 150;
  opts.pattern_rows = 50;
  opts.pattern_cols = 40;
  const AlignedDetectorOptions detector_opts = SmallDetectorOptions();
  const AlignedDetector detector(detector_opts);
  for (std::uint64_t seed = 6; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> pattern_rows;
    std::vector<std::size_t> pattern_cols;
    const BitMatrix matrix =
        SampleLiteralAligned(opts, &rng, &pattern_rows, &pattern_cols);
    const AlignedDetection detection =
        detector.DetectInMatrix(matrix, opts.n_prime);
    ASSERT_TRUE(detection.pattern_found) << "seed " << seed;
    EXPECT_EQ(detection.columns,
              reference::CoreScan(matrix, detection.rows, detector_opts.gamma))
        << "seed " << seed;
  }
}

TEST(AlignedDetectorTest, GammaSlackTradesRecallForPrecision) {
  // Fig 6 line 12: columns join the pattern when they share
  // >= weight(core) - gamma ones with the core. Larger gamma recovers at
  // least as many planted columns; tiny gamma keeps false columns near
  // zero.
  SyntheticAlignedOptions opts;
  opts.m = 120;
  opts.n = 3000;
  opts.n_prime = 150;
  opts.pattern_rows = 50;
  opts.pattern_cols = 40;
  Rng rng(13);
  std::vector<std::uint32_t> pattern_rows;
  std::vector<std::size_t> pattern_cols;
  const BitMatrix matrix =
      SampleLiteralAligned(opts, &rng, &pattern_rows, &pattern_cols);

  auto run = [&](std::uint32_t gamma) {
    AlignedDetectorOptions detector_opts = SmallDetectorOptions();
    detector_opts.gamma = gamma;
    AlignedDetector detector(detector_opts);
    return detector.DetectInMatrix(matrix, 150);
  };
  auto count_true = [&](const AlignedDetection& d) {
    std::size_t hits = 0;
    for (std::size_t c : pattern_cols) {
      if (std::binary_search(d.columns.begin(), d.columns.end(), c)) ++hits;
    }
    return hits;
  };

  const AlignedDetection strict = run(0);
  const AlignedDetection loose = run(3);
  ASSERT_TRUE(strict.pattern_found);
  ASSERT_TRUE(loose.pattern_found);
  const std::size_t strict_true = count_true(strict);
  const std::size_t loose_true = count_true(loose);
  EXPECT_GE(loose_true, strict_true);
  EXPECT_GE(loose_true, 30u);
  // Precision: false columns are a small fraction even with slack 3
  // (P[noise column matches] ~ binocdf tail at core weight - 3).
  EXPECT_LE(loose.columns.size() - loose_true, loose_true / 4);
}

TEST(AlignedDetectorTest, NaivePathOnTinyMatrixMatches) {
  // Screen width == matrix width turns the refined search into the naive
  // algorithm; on a tiny matrix both must find the planted block.
  SyntheticAlignedOptions opts;
  opts.m = 60;
  opts.n = 400;
  opts.n_prime = 400;
  opts.pattern_rows = 25;
  opts.pattern_cols = 10;
  Rng rng(7);
  std::vector<std::uint32_t> pattern_rows;
  std::vector<std::size_t> pattern_cols;
  const BitMatrix matrix =
      SampleLiteralAligned(opts, &rng, &pattern_rows, &pattern_cols);
  AlignedDetectorOptions detector_opts;
  detector_opts.first_iteration_hopefuls = 400;
  detector_opts.hopefuls = 200;
  AlignedDetector detector(detector_opts);
  const AlignedDetection detection = detector.DetectInMatrix(matrix, 400);
  EXPECT_TRUE(detection.pattern_found);
}

}  // namespace
}  // namespace dcs
