#include "analysis/aligned_detector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/bit_kernels.h"
#include "common/hash.h"
#include "common/logging.h"
#include "analysis/aligned_thresholds.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {
namespace {

// A candidate product extension: its weight plus the (a, b) pair that
// identifies it — (column i, column j) in the pair pass, (hopeful h, column
// c) in the extension passes.
struct Cand {
  std::uint32_t weight = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

// The search's total order: heavier first, ties by smaller (a, b). Because
// it is total, the top-H of a candidate set is a well-defined *set*, so the
// hopefuls lists do not depend on the order candidates are offered in.
bool CandBetter(const Cand& x, const Cand& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

// The H best candidates under CandBetter, selected from a buffer rather
// than a heap. Callers offer only candidates at or above floor_weight();
// when the buffer holds 4H of them, nth_element keeps the best H and the
// floor rises to the H-th weight. A candidate below the floor already has
// H better ones, and the top-H of a total order is a set, so the selection
// equals the bounded heap's, whatever the order of offers and cuts.
class TopH {
 public:
  /// Empties the buffer for a pass that keeps `capacity` candidates.
  void Reset(std::size_t capacity) {
    capacity_ = capacity;
    floor_ = 1;
    buffer_.clear();
  }

  void Offer(const Cand& cand) {
    buffer_.push_back(cand);
    if (buffer_.size() == kSlack * capacity_) KeepBest();
  }

  /// Weight a candidate must reach to possibly be kept. Zero-weight products
  /// are never hopefuls, hence the floor of 1 until the first cut; at
  /// exactly this weight candidates still compete on column ids.
  std::uint32_t floor_weight() const { return floor_; }

  /// The kept candidates in the total order (best first).
  const std::vector<Cand>& Sorted() {
    if (buffer_.size() > capacity_) KeepBest();
    std::sort(buffer_.begin(), buffer_.end(), CandBetter);
    return buffer_;
  }

 private:
  static constexpr std::size_t kSlack = 4;

  void KeepBest() {
    const auto nth =
        buffer_.begin() + static_cast<std::ptrdiff_t>(capacity_ - 1);
    std::nth_element(buffer_.begin(), nth, buffer_.end(), CandBetter);
    buffer_.resize(capacity_);
    floor_ = nth->weight;
  }

  std::size_t capacity_ = 0;
  std::uint32_t floor_ = 1;
  std::vector<Cand> buffer_;
};

// The hopefuls of one iteration b', stored flat and best first: hopeful h's
// product (the AND of its columns) at words[h * words_per_col], its b'
// screened column ids, ascending, at cols[h * b'], and its weight.
struct Hopefuls {
  std::size_t num_cols = 0;  // b'
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> cols;
  std::vector<std::uint32_t> weights;

  std::size_t size() const { return weights.size(); }
  void Clear(std::size_t b) {
    num_cols = b;
    words.clear();
    cols.clear();
    weights.clear();
  }
};

// The search stops after this many iterations in a row that bring no lower
// natural-occurrence bound and whose heaviest product lost rows, or held a
// weight too light to beat the best bound within the budget. A held weight
// that could still beat it restarts the count: with few rows the bound
// first rises while a pattern is absorbed (EXPERIMENTS.md, "Stopping the
// aligned search on evidence").
constexpr std::size_t kStopPatience = 3;

std::uint64_t ColumnSetFingerprint(std::span<const std::uint32_t> cols) {
  std::uint64_t h = 0x5EAFC0DE;
  for (std::uint32_t c : cols) h = HashCombine(h, Mix64(c + 1));
  return h;
}

}  // namespace

AlignedDetector::AlignedDetector(const AlignedDetectorOptions& options)
    : options_(options) {
  DCS_CHECK(options.first_iteration_hopefuls >= 1);
  DCS_CHECK(options.hopefuls >= 1);
  DCS_CHECK(options.max_iterations >= 2);
}

AlignedDetection AlignedDetector::Detect(
    const ScreenedColumns& screened) const {
  ScopedStageTimer stage("aligned_detect");
  ObsCounter("detector.aligned.runs").Increment();
  const bool obs = ObsEnabled();
  // Why the search stopped iterating, and the last iteration (b') it ran;
  // flushed with the work counters on every exit path below.
  const char* stop_reason = "exhausted";
  std::size_t last_iteration = 0;
  std::uint64_t counted = 0;  // Columns counted against a product.
  std::uint64_t offers = 0;   // Candidates at or above the floor.
  AlignedDetection detection;
  const auto report_stop = [&](const char* reason) {
    if (!ObsEnabled()) return;
    ObsCounter(std::string("detector.aligned.stop.") + reason).Increment();
    ObsGauge("detector.aligned.stop_iteration")
        .Set(static_cast<double>(last_iteration));
    ObsGauge("detector.aligned.best_iteration")
        .Set(static_cast<double>(detection.best_iteration));
    ObsCounter("detector.aligned.candidate_counts").Add(counted);
    ObsCounter("detector.aligned.offers").Add(offers);
  };
  const auto record_iteration = [obs](std::size_t num_hopefuls,
                                      std::uint32_t heaviest) {
    if (!obs) return;
    static Counter& iters = ObsCounter("detector.aligned.iterations");
    static LatencyHistogram& hop =
        ObsHistogram("detector.aligned.hopefuls_per_iteration");
    static LatencyHistogram& wt =
        ObsHistogram("detector.aligned.iteration_weight");
    iters.Increment();
    hop.Record(num_hopefuls);
    wt.Record(heaviest);
  };
  const std::size_t n_cols = screened.columns.size();
  const std::size_t m = screened.num_rows;
  if (n_cols < 2 || m == 0) {
    report_stop("empty_input");
    return detection;
  }

  // The screened columns as one block, column c at block[c * wpc]: the
  // count kernel streams it from L1 (16 KiB at n' = 1000, m <= 128).
  const std::size_t wpc = (m + 63) / 64;
  std::vector<std::uint64_t> block(n_cols * wpc);
  for (std::size_t c = 0; c < n_cols; ++c) {
    const BitVector& column = screened.columns[c];
    DCS_CHECK(column.num_words() == wpc);
    std::copy(column.words(), column.words() + wpc, &block[c * wpc]);
  }
  const auto column = [&block, wpc](std::size_t c) { return &block[c * wpc]; };
  const BitKernelOps& kernels = ActiveBitKernels();
  std::vector<std::uint32_t> counts(n_cols);
  std::vector<std::uint32_t> survivors(n_cols);
  TopH top;
  // Offers (counts[k], a, first + k) for every k < n that reaches the floor.
  // The select kernel keeps the k at the floor as it stands when the pass
  // starts; the floor only rises, so each is re-checked as it is offered.
  const auto offer_counts = [&](std::size_t a, std::size_t first,
                                std::size_t n) {
    const std::size_t kept = kernels.select_at_least(
        counts.data(), n, top.floor_weight(), survivors.data());
    for (std::size_t i = 0; i < kept; ++i) {
      const std::uint32_t k = survivors[i];
      if (counts[k] < top.floor_weight()) continue;
      top.Offer({counts[k], static_cast<std::uint32_t>(a),
                 static_cast<std::uint32_t>(first + k)});
      ++offers;
    }
  };

  // --- Iteration b' = 2: all column pairs, keep the heaviest hopefuls.
  last_iteration = 2;
  top.Reset(options_.first_iteration_hopefuls);
  for (std::size_t i = 0; i + 1 < n_cols; ++i) {
    // A pair weighs at most its first column.
    if (screened.weights[i] < top.floor_weight()) continue;
    const std::size_t rest = n_cols - i - 1;
    kernels.and_count_columns(column(i), column(i + 1), rest, wpc,
                              counts.data());
    counted += rest;
    offer_counts(i, i + 1, rest);
  }

  Hopefuls hopefuls;
  hopefuls.Clear(2);
  for (const Cand& cand : top.Sorted()) {
    hopefuls.cols.push_back(cand.a);
    hopefuls.cols.push_back(cand.b);
    for (std::size_t w = 0; w < wpc; ++w) {
      hopefuls.words.push_back(column(cand.a)[w] & column(cand.b)[w]);
    }
    hopefuls.weights.push_back(cand.weight);
  }
  if (hopefuls.size() == 0) {
    report_stop("no_hopefuls");
    return detection;
  }
  detection.weight_trajectory.push_back(hopefuls.weights[0]);
  record_iteration(hopefuls.size(), hopefuls.weights[0]);

  // Mean density of the screened columns: the significance gate must use it
  // rather than 1/2, because the screen hands us columns that were selected
  // for weight.
  double density_sum = 0.0;
  for (std::uint32_t w : screened.weights) density_sum += w;
  const double density = std::clamp(
      density_sum / (static_cast<double>(n_cols) * static_cast<double>(m)),
      0.5, 0.999);

  // Track the most significant (lowest natural-occurrence bound) product
  // seen across iterations — the heaviest hopeful of its iteration. It is
  // the detection, and it decides when to stop iterating.
  const auto bound = [&](std::uint32_t weight, std::size_t b) {
    return LogNaturalOccurrenceBoundDensity(
        static_cast<std::int64_t>(m), static_cast<std::int64_t>(n_cols),
        static_cast<std::int64_t>(weight), static_cast<std::int64_t>(b),
        density);
  };
  // The lowest bound a product of `weight` rows could reach by keeping that
  // weight through any later iteration. At a held weight each column changes
  // the log bound by log((n' - b') / (b' + 1)) + weight * log(density),
  // which falls as b' grows, so the lowest is at one end of the range.
  const std::size_t last_b = std::min(options_.max_iterations, n_cols);
  const auto held_bound = [&](std::uint32_t weight, std::size_t next_b) {
    return std::min(bound(weight, std::min(next_b, last_b)),
                    bound(weight, last_b));
  };
  std::vector<std::uint64_t> best_words;
  std::vector<std::uint32_t> best_cols;
  const auto keep_best = [&](const Hopefuls& p) {
    best_words.assign(p.words.begin(),
                      p.words.begin() + static_cast<std::ptrdiff_t>(wpc));
    best_cols.assign(p.cols.begin(),
                     p.cols.begin() + static_cast<std::ptrdiff_t>(p.num_cols));
  };
  keep_best(hopefuls);
  double best_log_bound = bound(hopefuls.weights[0], 2);
  std::size_t best_iteration = 2;
  std::size_t losing_streak = 0;

  // --- Iterations b' >= 3: extend each hopeful by one more column,
  // ranking every extension against all columns in one top-H selection.
  Hopefuls next;
  std::vector<std::uint32_t> cols;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t iter = 3; iter <= options_.max_iterations; ++iter) {
    last_iteration = iter;
    const std::size_t b = hopefuls.num_cols;
    top.Reset(options_.hopefuls);
    for (std::size_t h = 0; h < hopefuls.size(); ++h) {
      // An extension weighs at most its hopeful, and the hopefuls are best
      // first: once one falls below the floor, every later one does.
      if (hopefuls.weights[h] < top.floor_weight()) break;
      kernels.and_count_columns(&hopefuls.words[h * wpc], block.data(),
                                n_cols, wpc, counts.data());
      counted += n_cols;
      // A hopeful's own columns are not extensions; a zero count is never
      // offered.
      for (std::size_t k = 0; k < b; ++k) counts[hopefuls.cols[h * b + k]] = 0;
      offer_counts(h, 0, n_cols);
    }

    // Dedup identical column sets in the canonical order, then materialize
    // the surviving products.
    next.Clear(b + 1);
    seen.clear();
    for (const Cand& cand : top.Sorted()) {
      const auto parent_cols = hopefuls.cols.begin() +
                               static_cast<std::ptrdiff_t>(cand.a * b);
      cols.assign(parent_cols, parent_cols + static_cast<std::ptrdiff_t>(b));
      cols.insert(std::lower_bound(cols.begin(), cols.end(), cand.b), cand.b);
      if (!seen.insert(ColumnSetFingerprint(cols)).second) continue;
      next.cols.insert(next.cols.end(), cols.begin(), cols.end());
      const std::uint64_t* parent = &hopefuls.words[cand.a * wpc];
      for (std::size_t w = 0; w < wpc; ++w) {
        next.words.push_back(parent[w] & column(cand.b)[w]);
      }
      next.weights.push_back(cand.weight);
    }
    if (next.size() == 0) {
      stop_reason = "no_extensions";
      break;
    }
    std::swap(hopefuls, next);

    const std::uint32_t heaviest = hopefuls.weights[0];
    const bool lost_weight = heaviest < detection.weight_trajectory.back();
    detection.weight_trajectory.push_back(heaviest);
    record_iteration(hopefuls.size(), heaviest);

    const double log_bound = bound(heaviest, iter);
    const bool improved = log_bound < best_log_bound;
    if (improved) {
      best_log_bound = log_bound;
      keep_best(hopefuls);
      best_iteration = iter;
    }
    const bool behind =
        !improved &&
        (lost_weight || held_bound(heaviest, iter + 1) >= best_log_bound);
    losing_streak = behind ? losing_streak + 1 : 0;
    if (losing_streak == kStopPatience && !options_.record_full_trajectory) {
      stop_reason = "no_better_bound";
      break;
    }
  }

  detection.best_iteration = best_iteration;
  report_stop(stop_reason);

  // Non-naturally-occurring gate (Fig 5 line 6) within the searched
  // submatrix, at the screened density.
  if (best_log_bound > std::log(options_.nno_epsilon)) {
    ObsCounter("detector.aligned.nno_rejected").Increment();
    return detection;
  }

  ObsCounter("detector.aligned.detections").Increment();
  detection.pattern_found = true;
  for (std::size_t w = 0; w < wpc; ++w) {
    for (std::uint64_t bits = best_words[w]; bits != 0; bits &= bits - 1) {
      detection.rows.push_back(static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  detection.columns.reserve(best_cols.size());
  for (std::uint32_t c : best_cols) {
    detection.columns.push_back(screened.original_ids[c]);
  }
  std::sort(detection.columns.begin(), detection.columns.end());
  return detection;
}

AlignedDetection AlignedDetector::DetectInMatrix(
    const BitMatrix& matrix, std::size_t n_prime,
    const std::vector<std::uint32_t>* column_weights) const {
  const ScreenedColumns screened =
      ScreenHeaviestColumns(matrix, n_prime, column_weights);
  AlignedDetection detection = Detect(screened);
  if (!detection.pattern_found) return detection;

  // Fig 6 lines 10-14: scan every column, screened or not, against the
  // core; the core's own columns clear weight(core) - gamma by definition.
  // One positional popcount over the core rows gives every column's
  // common-1s count.
  ScopedStageTimer stage("aligned_core_scan");
  const std::size_t core_weight = detection.rows.size();
  const std::size_t thresh =
      core_weight > options_.gamma ? core_weight - options_.gamma : 1;
  std::vector<const std::uint64_t*> core_rows;
  core_rows.reserve(detection.rows.size());
  for (std::uint32_t r : detection.rows) {
    core_rows.push_back(matrix.row(r).words());
  }
  // The kernel adds whole words of counts, padding columns included.
  const std::size_t col_words = (matrix.cols() + 63) / 64;
  std::vector<std::uint32_t> common(col_words * 64, 0);
  ActiveBitKernels().accumulate_column_counts(
      core_rows.data(), core_rows.size(), 0, col_words, common.data());
  detection.columns.clear();
  for (std::size_t c = 0; c < matrix.cols(); ++c) {
    if (common[c] >= thresh) detection.columns.push_back(c);
  }
  return detection;
}

}  // namespace dcs
