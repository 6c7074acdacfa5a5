#include "analysis/aligned_detector.h"

#include <algorithm>
#include <cmath>
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

// A b'-product: the AND of b' columns, with the paper's A_v column set.
struct Product {
  BitVector bits;
  std::vector<std::uint32_t> cols;  // Indices into the screened set, sorted.
  std::uint32_t weight = 0;
};

// A candidate product extension: its weight plus the (a, b) pair that
// identifies it — (column i, column j) in the pair pass, (hopeful h, column
// c) in the extension passes.
struct Cand {
  std::uint32_t weight = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

// The engine's total order: heavier first, ties by smaller (a, b). Because
// it is total, the top-H of a candidate set is a well-defined *set*, and the
// union of per-shard top-H lists always contains it — which is what lets
// the sharded passes merge to bit-identical results at any thread count.
bool CandBetter(const Cand& x, const Cand& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

// Bounded heap keeping the H best candidates under CandBetter. Using
// CandBetter as the heap's "less" keeps the worst retained candidate at the
// front, where the next candidate challenges it.
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

  /// Weight a candidate must reach to possibly be kept. Zero-weight products
  /// are never hopefuls, hence the floor of 1 while filling; at exactly this
  /// weight candidates still compete on column ids.
  std::uint32_t floor_weight() const {
    return heap_.size() < capacity_ ? 1 : heap_.front().weight;
  }

  /// Entries in the total order (best first).
  std::vector<Cand> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), CandBetter);
    return std::move(heap_);
  }

 private:
  std::size_t capacity_;
  std::vector<Cand> heap_;
};

// Concatenates per-shard top lists and keeps the global top `capacity`
// under the total order. Exact regardless of shard boundaries (see
// CandBetter).
std::vector<Cand> MergeTopCands(std::vector<std::vector<Cand>>* shard_cands,
                                std::size_t capacity) {
  if (shard_cands->size() == 1) return std::move(shard_cands->front());
  std::vector<Cand> merged;
  std::size_t total = 0;
  for (const std::vector<Cand>& cands : *shard_cands) total += cands.size();
  merged.reserve(total);
  for (const std::vector<Cand>& cands : *shard_cands) {
    merged.insert(merged.end(), cands.begin(), cands.end());
  }
  std::sort(merged.begin(), merged.end(), CandBetter);
  if (merged.size() > capacity) merged.resize(capacity);
  return merged;
}

// Candidate buffer size for the batched AND+popcount passes. Candidates are
// admitted in scan order under the floor current at admission time — a
// superset of the pairs the unbatched loop would have computed, since the
// floor only rises — and every offer re-checks against the live floor in
// the original order, so the heap evolves bit-identically to the unbatched
// scan while the counting runs through one blocked kernel call per flush.
constexpr std::size_t kBatchCands = 128;

std::uint64_t ColumnSetFingerprint(const std::vector<std::uint32_t>& cols) {
  std::uint64_t h = 0x5EAFC0DE;
  for (std::uint32_t c : cols) h = HashCombine(h, Mix64(c + 1));
  return h;
}

}  // namespace

AlignedDetector::AlignedDetector(const AlignedDetectorOptions& options)
    : AlignedDetector(options, AnalysisContext{}) {}

AlignedDetector::AlignedDetector(const AlignedDetectorOptions& options,
                                 const AnalysisContext& context)
    : options_(options), context_(context) {
  DCS_CHECK(options.first_iteration_hopefuls >= 1);
  DCS_CHECK(options.hopefuls >= 1);
  DCS_CHECK(options.max_iterations >= 2);
}

AlignedDetection AlignedDetector::Detect(
    const ScreenedColumns& screened) const {
  ScopedStageTimer stage("aligned_detect");
  ObsCounter("detector.aligned.runs").Increment();
  ThreadPool* pool = context_.pool;
  // Per-shard task timers, hoisted so hot loops touch only lock-free metric
  // objects (the name lookup takes the registry mutex once per Detect).
  const bool obs = ObsEnabled();
  LatencyHistogram* pair_hist =
      obs && pool != nullptr ? &ObsHistogram("stage.aligned_pair_task.ns")
                             : nullptr;
  LatencyHistogram* ext_hist =
      obs && pool != nullptr ? &ObsHistogram("stage.aligned_extend_task.ns")
                             : nullptr;
  // Why the search stopped iterating; flushed as a detector.aligned.stop.*
  // counter on every exit path below.
  const char* stop_reason = "exhausted";
  AlignedDetection detection;
  const auto report_stop = [&detection](const char* reason) {
    if (!ObsEnabled()) return;
    ObsCounter(std::string("detector.aligned.stop.") + reason).Increment();
    ObsGauge("detector.aligned.stop_iteration")
        .Set(static_cast<double>(detection.stop_iteration));
  };
  const std::size_t n_cols = screened.columns.size();
  const std::size_t m = screened.num_rows;
  if (n_cols < 2 || m == 0) {
    report_stop("empty_input");
    return detection;
  }

  // --- Iteration b' = 2: all column pairs, keep the heaviest hopefuls.
  // Sharded over the first column; each shard keeps its own bounded heap
  // and the merge recovers the exact global top list.
  const std::vector<ShardRange> pair_shards = ShardsFor(pool, n_cols);
  std::vector<std::vector<Cand>> shard_pairs(pair_shards.size());
  RunShards(pool, pair_shards, [&](const ShardRange& shard) {
    StageStopwatch watch;
    if (pair_hist != nullptr) watch.Start();
    TopH heap(options_.first_iteration_hopefuls);
    std::uint32_t cand_ids[kBatchCands];
    const std::uint64_t* cand_rows[kBatchCands];
    std::uint32_t cand_weights[kBatchCands];
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      const BitVector& ci = screened.columns[i];
      const std::uint32_t wi = screened.weights[i];
      std::size_t buffered = 0;
      const auto flush = [&] {
        ActiveBitKernels().and_count_batch(ci.words(), cand_rows, buffered,
                                           ci.num_words(), cand_weights);
        for (std::size_t k = 0; k < buffered; ++k) {
          if (cand_weights[k] >= heap.floor_weight()) {
            heap.Offer({cand_weights[k], static_cast<std::uint32_t>(i),
                        cand_ids[k]});
          }
        }
        buffered = 0;
      };
      for (std::size_t j = i + 1; j < n_cols; ++j) {
        // AND weight can't beat min(w_i, w_j); skip hopeless pairs cheaply.
        if (std::min(wi, screened.weights[j]) < heap.floor_weight()) {
          continue;
        }
        cand_ids[buffered] = static_cast<std::uint32_t>(j);
        cand_rows[buffered] = screened.columns[j].words();
        if (++buffered == kBatchCands) flush();
      }
      if (buffered > 0) flush();
    }
    shard_pairs[shard.index] = heap.TakeSorted();
    if (pair_hist != nullptr) pair_hist->Record(watch.ElapsedNanos());
  });
  const std::vector<Cand> pair_cands =
      MergeTopCands(&shard_pairs, options_.first_iteration_hopefuls);

  std::vector<Product> hopefuls;
  hopefuls.reserve(pair_cands.size());
  for (const Cand& cand : pair_cands) {
    Product product;
    product.bits.AssignAnd(screened.columns[cand.a],
                           screened.columns[cand.b]);
    product.cols = {cand.a, cand.b};
    product.weight = cand.weight;
    hopefuls.push_back(std::move(product));
  }
  if (hopefuls.empty()) {
    report_stop("no_hopefuls");
    return detection;
  }

  detection.weight_trajectory.push_back(hopefuls.front().weight);
  if (obs) {
    static Counter& iters = ObsCounter("detector.aligned.iterations");
    static LatencyHistogram& hop =
        ObsHistogram("detector.aligned.hopefuls_per_iteration");
    static LatencyHistogram& wt =
        ObsHistogram("detector.aligned.iteration_weight");
    iters.Increment();
    hop.Record(hopefuls.size());
    wt.Record(hopefuls.front().weight);
  }

  // Mean density of the screened columns: the significance gate must use it
  // rather than 1/2, because the screen hands us columns that were selected
  // for weight.
  double density_sum = 0.0;
  for (std::uint32_t w : screened.weights) density_sum += w;
  const double density = std::clamp(
      density_sum / (static_cast<double>(n_cols) * static_cast<double>(m)),
      0.5, 0.999);

  // Track the most significant (lowest natural-occurrence bound) product
  // seen across iterations; the weight-loss heuristics below only decide
  // when to stop iterating early.
  auto significance = [&](const Product& p) {
    return LogNaturalOccurrenceBoundDensity(
        static_cast<std::int64_t>(m), static_cast<std::int64_t>(n_cols),
        static_cast<std::int64_t>(p.weight),
        static_cast<std::int64_t>(p.cols.size()), density);
  };
  Product best_product = hopefuls.front();
  double best_log_bound = significance(best_product);
  std::size_t best_iteration = 2;
  bool flattened = false;
  bool dive_detected = false;
  double prev_weight = static_cast<double>(hopefuls.front().weight);

  // --- Iterations b' >= 3: extend each hopeful by one more column.
  // Sharded over the hopefuls; every shard ranks its hopefuls' extensions
  // against all columns into a bounded heap, merged like the pair pass.
  for (std::size_t iter = 3; iter <= options_.max_iterations; ++iter) {
    const std::vector<ShardRange> ext_shards =
        ShardsFor(pool, hopefuls.size());
    std::vector<std::vector<Cand>> shard_exts(ext_shards.size());
    RunShards(pool, ext_shards, [&](const ShardRange& shard) {
      StageStopwatch watch;
      if (ext_hist != nullptr) watch.Start();
      TopH heap(options_.hopefuls);
      std::uint32_t cand_ids[kBatchCands];
      const std::uint64_t* cand_rows[kBatchCands];
      std::uint32_t cand_weights[kBatchCands];
      for (std::size_t h = shard.begin; h < shard.end; ++h) {
        const Product& v = hopefuls[h];
        if (v.weight < heap.floor_weight()) continue;  // Can only shrink.
        std::size_t buffered = 0;
        const auto flush = [&] {
          ActiveBitKernels().and_count_batch(v.bits.words(), cand_rows,
                                             buffered, v.bits.num_words(),
                                             cand_weights);
          for (std::size_t k = 0; k < buffered; ++k) {
            if (cand_weights[k] >= heap.floor_weight()) {
              heap.Offer({cand_weights[k], static_cast<std::uint32_t>(h),
                          cand_ids[k]});
            }
          }
          buffered = 0;
        };
        for (std::uint32_t c = 0; c < n_cols; ++c) {
          if (std::binary_search(v.cols.begin(), v.cols.end(), c)) continue;
          if (std::min(v.weight, screened.weights[c]) < heap.floor_weight()) {
            continue;
          }
          cand_ids[buffered] = c;
          cand_rows[buffered] = screened.columns[c].words();
          if (++buffered == kBatchCands) flush();
        }
        if (buffered > 0) flush();
      }
      shard_exts[shard.index] = heap.TakeSorted();
      if (ext_hist != nullptr) ext_hist->Record(watch.ElapsedNanos());
    });
    const std::vector<Cand> ext_cands =
        MergeTopCands(&shard_exts, options_.hopefuls);

    // Dedup identical column sets in the canonical order, then materialize
    // the surviving products' bits (in parallel when they carry enough
    // rows to be worth the fan-out; each slot is written by one task).
    std::vector<Product> next;
    std::vector<Cand> kept;
    next.reserve(ext_cands.size());
    kept.reserve(ext_cands.size());
    std::unordered_set<std::uint64_t> seen;
    for (const Cand& cand : ext_cands) {
      const Product& parent = hopefuls[cand.a];
      std::vector<std::uint32_t> cols = parent.cols;
      cols.insert(std::lower_bound(cols.begin(), cols.end(), cand.b),
                  cand.b);
      if (!seen.insert(ColumnSetFingerprint(cols)).second) continue;
      Product product;
      product.cols = std::move(cols);
      product.weight = cand.weight;
      next.push_back(std::move(product));
      kept.push_back(cand);
    }
    if (next.empty()) {
      stop_reason = "no_extensions";
      break;
    }
    ThreadPool* const materialize_pool = next.size() >= 64 ? pool : nullptr;
    RunShards(materialize_pool, ShardsFor(materialize_pool, next.size()),
              [&](const ShardRange& shard) {
                for (std::size_t idx = shard.begin; idx < shard.end; ++idx) {
                  next[idx].bits.AssignAnd(hopefuls[kept[idx].a].bits,
                                           screened.columns[kept[idx].b]);
                }
              });
    hopefuls = std::move(next);

    const double cur_weight = static_cast<double>(hopefuls.front().weight);
    detection.weight_trajectory.push_back(hopefuls.front().weight);
    if (obs) {
      static Counter& iters = ObsCounter("detector.aligned.iterations");
      static LatencyHistogram& hop =
          ObsHistogram("detector.aligned.hopefuls_per_iteration");
      static LatencyHistogram& wt =
          ObsHistogram("detector.aligned.iteration_weight");
      iters.Increment();
      hop.Record(hopefuls.size());
      wt.Record(hopefuls.front().weight);
    }

    const double log_bound = significance(hopefuls.front());
    if (log_bound < best_log_bound) {
      best_log_bound = log_bound;
      best_product = hopefuls.front();
      best_iteration = iter;
    }

    // Termination procedure (Section III-B): the weight first decays
    // steeply per iteration while noise rows are being zeroed out, flattens
    // as the product absorbs pattern columns, then dives again once the
    // pattern is exhausted. Stop shortly after the second dive begins (the
    // best product is already recorded). Tiny weights make the ratio
    // meaningless, so flattening requires some mass left.
    if (!dive_detected && prev_weight > 0) {
      const double ratio = cur_weight / prev_weight;
      if (flattened && ratio <= options_.dive_ratio) {
        dive_detected = true;
        stop_reason = "dive";
        if (!options_.record_full_trajectory) break;
      } else if (ratio >= options_.flatten_ratio && cur_weight >= 8.0) {
        flattened = true;
      }
    }
    prev_weight = cur_weight;
    if (hopefuls.front().weight == 0) {
      stop_reason = "zero_weight";
      break;
    }
    // Pure-noise fast path: once the heaviest product is down to a handful
    // of rows without ever flattening, no later product can become
    // significant — products only lose weight.
    if (!options_.record_full_trajectory && !flattened &&
        hopefuls.front().weight < 4) {
      stop_reason = "noise_floor";
      break;
    }
  }

  detection.stop_iteration = best_iteration;
  report_stop(stop_reason);

  // Non-naturally-occurring gate (Fig 5 line 6) within the searched
  // submatrix, at the screened density.
  if (best_log_bound > std::log(options_.nno_epsilon)) {
    ObsCounter("detector.aligned.nno_rejected").Increment();
    return detection;
  }

  ObsCounter("detector.aligned.detections").Increment();
  detection.pattern_found = true;
  std::vector<std::size_t> set_rows;
  best_product.bits.AppendSetBits(&set_rows);
  detection.rows.assign(set_rows.begin(), set_rows.end());
  detection.columns.reserve(best_product.cols.size());
  for (std::uint32_t c : best_product.cols) {
    detection.columns.push_back(screened.original_ids[c]);
  }
  std::sort(detection.columns.begin(), detection.columns.end());
  return detection;
}

std::vector<AlignedDetection> AlignedDetector::DetectMultipleInMatrix(
    const BitMatrix& matrix, std::size_t n_prime, std::size_t max_patterns,
    const std::vector<std::uint32_t>* column_weights) const {
  ThreadPool* pool = context_.pool;
  std::vector<AlignedDetection> detections;
  BitMatrix working = matrix;
  for (std::size_t round = 0; round < max_patterns; ++round) {
    // Hot-start weights describe the unmodified matrix, so they are only
    // valid before the first erase.
    AlignedDetection detection = DetectInMatrix(
        working, n_prime, round == 0 ? column_weights : nullptr);
    if (!detection.pattern_found) break;
    ObsCounter("detector.aligned.multi_rounds").Increment();
    // Erase the found pattern's columns so the next round sees only what
    // remains. Rows are independent, so the erase fans out per row.
    RunShards(pool, ShardsFor(pool, working.rows()),
              [&working, &detection](const ShardRange& shard) {
                for (std::size_t r = shard.begin; r < shard.end; ++r) {
                  BitVector& row = working.row(r);
                  for (std::size_t c : detection.columns) row.Clear(c);
                }
              });
    detections.push_back(std::move(detection));
  }
  return detections;
}

AlignedDetection AlignedDetector::DetectInMatrix(
    const BitMatrix& matrix, std::size_t n_prime,
    const std::vector<std::uint32_t>* column_weights) const {
  ThreadPool* pool = context_.pool;
  const ScreenedColumns screened =
      ScreenHeaviestColumns(matrix, n_prime, pool, column_weights);
  AlignedDetection detection = Detect(screened);
  if (!detection.pattern_found) return detection;

  // Fig 6 lines 10-14: scan every column outside S1 against the core.
  // Sharded over word-aligned column slices: each shard accumulates the
  // common-1s counts of its own columns across the core rows and collects
  // its qualifying columns; shards concatenate in ascending column order.
  ScopedStageTimer stage("aligned_core_scan");
  const bool obs = ObsEnabled();
  LatencyHistogram* task_hist =
      obs && pool != nullptr
          ? &ObsHistogram("stage.aligned_core_scan_task.ns")
          : nullptr;
  const std::size_t core_weight = detection.rows.size();
  const std::size_t thresh =
      core_weight > options_.gamma ? core_weight - options_.gamma : 1;

  const std::unordered_set<std::size_t> in_screen(
      screened.original_ids.begin(), screened.original_ids.end());
  std::vector<std::uint32_t> common(matrix.cols(), 0);
  // Core-row word pointers, gathered once; each shard feeds them to the
  // positional-popcount kernel over its own word-aligned column slice, so
  // the parallel fill stays race-free.
  std::vector<const std::uint64_t*> core_rows;
  core_rows.reserve(detection.rows.size());
  for (std::uint32_t r : detection.rows) {
    core_rows.push_back(matrix.row(r).words());
  }
  const std::size_t col_words = (matrix.cols() + 63) / 64;
  const std::vector<ShardRange> shards = ShardsFor(pool, col_words);
  std::vector<std::vector<std::size_t>> shard_cols(shards.size());
  RunShards(pool, shards, [&](const ShardRange& shard) {
    StageStopwatch watch;
    if (task_hist != nullptr) watch.Start();
    AccumulateColumnCounts(core_rows.data(), core_rows.size(), shard.begin,
                           shard.end, common.data());
    const std::size_t col_end = std::min(shard.end * 64, matrix.cols());
    for (std::size_t c = shard.begin * 64; c < col_end; ++c) {
      if (common[c] >= thresh && !in_screen.contains(c)) {
        shard_cols[shard.index].push_back(c);
      }
    }
    if (task_hist != nullptr) task_hist->Record(watch.ElapsedNanos());
  });
  for (const std::vector<std::size_t>& cols : shard_cols) {
    detection.columns.insert(detection.columns.end(), cols.begin(),
                             cols.end());
  }
  std::sort(detection.columns.begin(), detection.columns.end());
  return detection;
}

}  // namespace dcs
