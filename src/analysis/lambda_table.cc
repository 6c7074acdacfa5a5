#include "analysis/lambda_table.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats_math.h"
#include "common/thread_pool.h"

namespace dcs {

LambdaTable::LambdaTable(std::size_t array_bits, double p_star)
    : array_bits_(array_bits), p_star_(p_star) {
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

void LambdaTable::Calibrate(std::span<const std::uint32_t> row_weights,
                            ThreadPool* pool) const {
  // Distinct non-zero weights, ascending. The scan never looks up a pair
  // involving an empty row, so weight 0 would be wasted work.
  std::vector<std::uint32_t> weights(row_weights.begin(), row_weights.end());
  std::sort(weights.begin(), weights.end());
  weights.erase(std::unique(weights.begin(), weights.end()), weights.end());
  if (!weights.empty() && weights.front() == 0) {
    weights.erase(weights.begin());
  }
  if (weights == weights_) return;
  weights_ = std::move(weights);
  low_ = weights_.empty() ? 0 : weights_.front();
  span_ = weights_.empty() ? 0 : weights_.back() - low_ + 1;
  window_.assign(static_cast<std::size_t>(span_) * span_, -1);
  // Shard over the first weight; iterating a <= b covers each unordered
  // pair exactly once, so shards write disjoint cells and the miss counter
  // advances by exactly the number of observed pairs.
  RunShards(pool, ShardsFor(pool, weights_.size()),
            [this](const ShardRange& shard) {
              for (std::size_t a = shard.begin; a < shard.end; ++a) {
                for (std::size_t b = a; b < weights_.size(); ++b) {
                  const std::size_t i = weights_[a] - low_;
                  const std::size_t j = weights_[b] - low_;
                  window_[i * span_ + j] = window_[j * span_ + i] =
                      static_cast<std::int32_t>(
                          ComputeMiss(weights_[a], weights_[b]));
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
