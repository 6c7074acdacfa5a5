#include "analysis/lambda_table.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats_math.h"
#include "common/thread_pool.h"

namespace dcs {

LambdaTable::LambdaTable(std::size_t array_bits, double p_star)
    : array_bits_(array_bits),
      p_star_(p_star),
      log_p_star_(std::log(p_star)) {
  DCS_CHECK(p_star > 0.0 && p_star < 1.0);
}

std::int64_t LambdaTable::ComputeMiss(std::uint32_t i,
                                      std::uint32_t j) const {
  DCS_CHECK(i <= array_bits_ && j <= array_bits_);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  return HypergeomUpperThreshold(
      p_star_, static_cast<std::int64_t>(array_bits_), std::min(i, j),
      std::max(i, j));
}

std::int32_t LambdaTable::CalibrateCell(std::uint32_t i, std::uint32_t j,
                                        std::int64_t floor) const {
  if (floor < 0) return static_cast<std::int32_t>(ComputeMiss(i, j));
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const auto big_n = static_cast<std::int64_t>(array_bits_);
  // HypergeomUpperThreshold's predicate and bracket: false at k_min - 1,
  // true at k_max, and lambda is the first x where it holds.
  const auto holds = [&](std::int64_t x) {
    return LogHypergeomSf(x, big_n, i, j) <= log_p_star_;
  };
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  std::int64_t hi = i;  // k_max = min(i, j).
  std::int64_t lo = std::max(floor, k_min) - 1;
  // lambda_{i,j} >= lambda_{i,j'} = floor, so the predicate fails just
  // below it. Checking that makes the result the predicate's first true x,
  // as the bisection finds it, even if rounding ever broke monotonicity in
  // j; should it, bisect from scratch.
  if (lo >= k_min && holds(lo)) {
    return static_cast<std::int32_t>(HypergeomUpperThreshold(
        p_star_, big_n, i, j));
  }
  // Gallop up from the floor, then bisect the last step.
  for (std::int64_t step = 1; lo + step < hi; step *= 2) {
    if (holds(lo + step)) {
      hi = lo + step;
      break;
    }
    lo += step;
  }
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (holds(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return static_cast<std::int32_t>(hi);
}

void LambdaTable::Calibrate(std::span<const std::uint32_t> row_weights,
                            ThreadPool* pool) const {
  // Distinct non-zero weights the table does not hold yet. The scan never
  // looks up a pair involving an empty row, so weight 0 would be wasted
  // work.
  std::vector<std::uint32_t> seen(row_weights.begin(), row_weights.end());
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  if (!seen.empty() && seen.front() == 0) seen.erase(seen.begin());
  std::vector<std::uint32_t> fresh;
  std::set_difference(seen.begin(), seen.end(), weights_.begin(),
                      weights_.end(), std::back_inserter(fresh));
  if (fresh.empty()) return;
  std::vector<std::uint32_t> held;
  held.reserve(weights_.size() + fresh.size());
  std::merge(weights_.begin(), weights_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(held));
  weights_ = std::move(held);

  // Grow the window to [min, max] of the held weights, keeping every cell
  // already computed.
  const std::uint32_t low = weights_.front();
  const std::uint32_t span = weights_.back() - low + 1;
  if (low != low_ || span != span_) {
    std::vector<std::int32_t> grown(static_cast<std::size_t>(span) * span,
                                    -1);
    const std::size_t shift = span_ == 0 ? 0 : low_ - low;
    for (std::size_t r = 0; r < span_; ++r) {
      const auto from =
          window_.begin() + static_cast<std::ptrdiff_t>(r * span_);
      std::copy(from, from + span_,
                grown.begin() +
                    static_cast<std::ptrdiff_t>((r + shift) * span + shift));
    }
    window_ = std::move(grown);
    low_ = low;
    span_ = span;
  }

  // Old pairs are all filled, so the empty cells among held pairs are
  // exactly the pairs with a new weight. Shard over the first weight and
  // walk each row's upper half (b >= a) in ascending order, writing each
  // cell and its mirror: a shard reads and writes only its own rows' upper
  // halves and their mirrors below the diagonal, which no shard reads, so
  // each unordered pair is computed exactly once.
  RunShards(pool, ShardsFor(pool, weights_.size()),
            [this](const ShardRange& shard) {
              for (std::size_t a = shard.begin; a < shard.end; ++a) {
                const std::size_t row = weights_[a] - low_;
                std::int64_t floor = -1;
                for (std::size_t b = a; b < weights_.size(); ++b) {
                  const std::size_t col = weights_[b] - low_;
                  std::int32_t& cell = window_[row * span_ + col];
                  if (cell < 0) {
                    cell = CalibrateCell(weights_[a], weights_[b], floor);
                    window_[col * span_ + row] = cell;
                  }
                  floor = cell;
                }
              }
            });
}

double LambdaTable::EdgeProbFromPStar(double p_star, std::size_t arrays) {
  const double pairs = static_cast<double>(arrays) * static_cast<double>(arrays);
  return 1.0 - std::exp(pairs * std::log1p(-p_star));
}

double LambdaTable::PStarFromEdgeProb(double p1, std::size_t arrays) {
  DCS_CHECK(p1 > 0.0 && p1 < 1.0);
  const double pairs = static_cast<double>(arrays) * static_cast<double>(arrays);
  return -std::expm1(std::log1p(-p1) / pairs);
}

}  // namespace dcs
