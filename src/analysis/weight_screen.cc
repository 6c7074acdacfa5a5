#include "analysis/weight_screen.h"

#include <algorithm>
#include <utility>

#include "common/bit_kernels.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {
namespace {

// (weight, column id) under the screen's total order: heavier first, ties by
// lower id. Total — so per-shard top-k merges to the exact global top-k no
// matter how the columns were sharded.
using Entry = std::pair<std::uint32_t, std::size_t>;

bool EntryBetter(const Entry& a, const Entry& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

// Accumulates, into weights[c] for c in the word-aligned column range of
// `shard`, the number of 1s each column has across all rows, via the
// carry-save positional-popcount kernel. Shards own disjoint weight slices,
// so the parallel fill is race-free. `row_words` is the matrix's row
// pointers, gathered once per screen.
void AccumulateColumnWeights(const std::vector<const std::uint64_t*>& row_words,
                             const ShardRange& shard,
                             std::vector<std::uint32_t>* weights) {
  AccumulateColumnCounts(row_words.data(), row_words.size(), shard.begin,
                         shard.end, weights->data());
}

}  // namespace

std::vector<std::size_t> TopKIndicesInRange(
    const std::vector<std::uint32_t>& values, std::size_t begin,
    std::size_t end, std::size_t k) {
  end = std::min(end, values.size());
  begin = std::min(begin, end);
  k = std::min(k, end - begin);
  if (k == 0) return {};
  // Min-heap of the best k: EntryBetter as "less" puts the worst kept entry
  // at the front, where the next candidate challenges it.
  std::vector<Entry> heap;
  heap.reserve(k);
  auto cmp = [](const Entry& a, const Entry& b) { return EntryBetter(a, b); };
  for (std::size_t i = begin; i < end; ++i) {
    const Entry entry{values[i], i};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (EntryBetter(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  std::sort(heap.begin(), heap.end(), EntryBetter);
  std::vector<std::size_t> result;
  result.reserve(heap.size());
  for (const Entry& e : heap) result.push_back(e.second);
  return result;
}

std::vector<std::size_t> TopKIndices(const std::vector<std::uint32_t>& values,
                                     std::size_t k) {
  return TopKIndicesInRange(values, 0, values.size(), k);
}

ScreenedColumns ScreenHeaviestColumns(
    const BitMatrix& matrix, std::size_t n_prime, ThreadPool* pool,
    const std::vector<std::uint32_t>* precomputed_weights) {
  ScopedStageTimer stage("weight_screen");
  ScreenedColumns screened;
  screened.num_rows = matrix.rows();
  screened.num_source_columns = matrix.cols();
  if (matrix.cols() == 0) return screened;

  const bool obs = ObsEnabled();
  LatencyHistogram* task_hist =
      obs && pool != nullptr ? &ObsHistogram("stage.weight_screen_task.ns")
                             : nullptr;

  // Pass 1 — weights plus per-shard heaviest-k, sharded over word-aligned
  // column slices (64-column granularity keeps every slice's bit loop on
  // whole words). With precomputed weights the accumulation is skipped and
  // only the selection runs over the caller's vector (the hot start).
  const bool hot = precomputed_weights != nullptr;
  if (hot) {
    DCS_CHECK(precomputed_weights->size() == matrix.cols())
        << "precomputed weights cover " << precomputed_weights->size()
        << " columns, matrix has " << matrix.cols();
  }
  const std::size_t col_words = (matrix.cols() + 63) / 64;
  const std::vector<ShardRange> shards = ShardsFor(pool, col_words);
  std::vector<std::uint32_t> scratch;
  if (!hot) scratch.assign(matrix.cols(), 0);
  const std::vector<std::uint32_t>& weights =
      hot ? *precomputed_weights : scratch;
  std::vector<const std::uint64_t*> row_words;
  if (!hot) {
    row_words.reserve(matrix.rows());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      row_words.push_back(matrix.row(r).words());
    }
  }
  std::vector<std::vector<std::size_t>> shard_top(shards.size());
  const auto weigh_shard = [&](const ShardRange& shard) {
    StageStopwatch watch;
    if (task_hist != nullptr) watch.Start();
    if (!hot) AccumulateColumnWeights(row_words, shard, &scratch);
    shard_top[shard.index] = TopKIndicesInRange(
        weights, shard.begin * 64, std::min(shard.end * 64, matrix.cols()),
        n_prime);
    if (task_hist != nullptr) task_hist->Record(watch.ElapsedNanos());
  };
  RunShards(pool, shards, weigh_shard);

  // Merge shard candidates in the total order and keep the global top n'.
  // Every global winner is a winner of its own shard, so the union of the
  // shard top-k lists contains the exact answer.
  std::vector<Entry> merged;
  for (const std::vector<std::size_t>& top : shard_top) {
    for (std::size_t id : top) merged.emplace_back(weights[id], id);
  }
  std::sort(merged.begin(), merged.end(), EntryBetter);
  if (merged.size() > n_prime) merged.resize(n_prime);
  screened.original_ids.reserve(merged.size());
  screened.weights.reserve(merged.size());
  for (const Entry& e : merged) {
    screened.original_ids.push_back(e.second);
    screened.weights.push_back(e.first);
  }

  // Pass 2 — extract the chosen columns, sharded over the selection (each
  // shard writes its own disjoint BitVectors).
  screened.columns.assign(screened.original_ids.size(),
                          BitVector(matrix.rows()));
  const auto extract_shard = [&](const ShardRange& shard) {
    StageStopwatch watch;
    if (task_hist != nullptr) watch.Start();
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      const BitVector& row = matrix.row(r);
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (row.Test(screened.original_ids[i])) screened.columns[i].Set(r);
      }
    }
    if (task_hist != nullptr) task_hist->Record(watch.ElapsedNanos());
  };
  const std::vector<ShardRange> extract_shards =
      ShardsFor(pool, screened.original_ids.size());
  RunShards(pool, extract_shards, extract_shard);

  if (obs) {
    ObsCounter("screen.runs").Increment();
    if (hot) ObsCounter("screen.hot_starts").Increment();
    ObsCounter("screen.shard_tasks").Add(shards.size() +
                                         extract_shards.size());
  }
  return screened;
}

}  // namespace dcs
