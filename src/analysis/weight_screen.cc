#include "analysis/weight_screen.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace dcs {

std::vector<std::size_t> TopKIndices(const std::vector<std::uint32_t>& values,
                                     std::size_t k) {
  k = std::min(k, values.size());
  if (k == 0) return {};
  // (value, index) under the screen's total order: larger first, ties by
  // lower index. A min-heap of the best k under that order keeps the worst
  // kept entry at the front, where the next candidate challenges it.
  using Entry = std::pair<std::uint32_t, std::size_t>;
  const auto better = [](const Entry& a, const Entry& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  std::vector<Entry> heap;
  heap.reserve(k);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Entry entry{values[i], i};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort(heap.begin(), heap.end(), better);
  std::vector<std::size_t> result;
  result.reserve(heap.size());
  for (const Entry& e : heap) result.push_back(e.second);
  return result;
}

ScreenedColumns ScreenHeaviestColumns(
    const BitMatrix& matrix, std::size_t n_prime,
    const std::vector<std::uint32_t>* precomputed_weights) {
  ScopedStageTimer stage("weight_screen");
  ScreenedColumns screened;
  screened.num_rows = matrix.rows();
  screened.num_source_columns = matrix.cols();
  if (matrix.cols() == 0) return screened;

  // With precomputed weights the weight pass is skipped (the hot start).
  const bool hot = precomputed_weights != nullptr;
  if (hot) {
    DCS_CHECK(precomputed_weights->size() == matrix.cols())
        << "precomputed weights cover " << precomputed_weights->size()
        << " columns, matrix has " << matrix.cols();
  }
  std::vector<std::uint32_t> cold;
  if (!hot) cold = matrix.ColumnWeights();
  const std::vector<std::uint32_t>& weights =
      hot ? *precomputed_weights : cold;

  screened.original_ids = TopKIndices(weights, n_prime);
  screened.weights.reserve(screened.original_ids.size());
  for (std::size_t id : screened.original_ids) {
    screened.weights.push_back(weights[id]);
  }
  screened.columns = matrix.ExtractColumns(screened.original_ids);

  if (ObsEnabled()) {
    ObsCounter("screen.runs").Increment();
    if (hot) ObsCounter("screen.hot_starts").Increment();
  }
  return screened;
}

}  // namespace dcs
