#ifndef DCS_ANALYSIS_LAMBDA_TABLE_H_
#define DCS_ANALYSIS_LAMBDA_TABLE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace dcs {

class ThreadPool;

/// \brief The paper's threshold table Lambda = {lambda_{i,j}} (Section IV-B).
///
/// For two sketch rows with i and j ones out of N bits, the number of common
/// 1s under the null (no matching content) is hypergeometric; lambda_{i,j}
/// is the smallest threshold with P[X(i,j) > lambda_{i,j}] <= p_star, making
/// the per-row-pair false-alarm probability uniform regardless of row fill.
///
/// The table is a dense window over every row weight it has been calibrated
/// with: each Calibrate() adds its weights, grows the window to span them
/// all, and fills the cells of every pair of them, which is all a pair scan
/// over those rows ever reads. lambda is a pure function of (array_bits,
/// p_star, i, j), so one table serves any number of epochs and later calls
/// compute only the pairs a new weight brings. Any other pair is computed
/// directly on lookup, uncached, and counted in cache_misses(). Lookups may
/// run concurrently with each other; Calibrate() must not run concurrently
/// with Threshold() or another Calibrate().
class LambdaTable {
 public:
  /// Table for rows of `array_bits` bits at per-pair false-alarm level
  /// `p_star`. Starts empty: every lookup misses until Calibrate().
  LambdaTable(std::size_t array_bits, double p_star);

  /// lambda_{i,j}; symmetric in (i, j). i, j must be <= array_bits.
  std::int64_t Threshold(std::uint32_t i, std::uint32_t j) const {
    // Unsigned wrap sends weights below the window past `span_` too.
    const std::uint32_t a = i - low_;
    const std::uint32_t b = j - low_;
    if (a < span_ && b < span_) {
      const std::int32_t cached =
          window_[static_cast<std::size_t>(a) * span_ + b];
      if (cached >= 0) return cached;
    }
    return ComputeMiss(i, j);
  }

  /// The window row of weight i, or nullptr when i is outside the window:
  /// row[j - window_low()] is lambda_{i,j} for every weight j in
  /// [window_low(), window_low() + window_span()), or -1 where Calibrate()
  /// has not filled the pair. A read counts nothing, so a scan that tests
  /// a whole row this way counts its own lookups. Valid until the next
  /// Calibrate().
  const std::int32_t* WindowRow(std::uint32_t i) const {
    const std::uint32_t a = i - low_;
    return a < span_ ? &window_[static_cast<std::size_t>(a) * span_]
                     : nullptr;
  }
  std::uint32_t window_low() const { return low_; }
  std::uint32_t window_span() const { return span_; }

  /// Adds the distinct non-zero values in `row_weights` (zeros are rows the
  /// scan skips) to the weights the table holds, grows the window to span
  /// them, and computes every pair of held weights whose cell is still
  /// empty -- exactly the pairs with at least one weight new to the table --
  /// once each, as one miss, into both mirror cells, sharded over `pool`
  /// when non-null. A call that brings no new weight computes nothing.
  ///
  /// lambda_{i,j} is non-decreasing in j, so each window row is filled in
  /// ascending j by a search that starts at the row's previous cell and
  /// tests the predicate HypergeomUpperThreshold() bisects on: about two
  /// tail evaluations per cell instead of about nine, and the same value.
  /// The window and the miss count are bit-identical at any thread count.
  /// Logically const: it changes what a lookup costs, never what it returns.
  void Calibrate(std::span<const std::uint32_t> row_weights,
                 ThreadPool* pool) const;

  /// The key lambda depends on besides (i, j).
  std::size_t array_bits() const { return array_bits_; }
  double p_star() const { return p_star_; }

  /// Thresholds computed rather than read from the window: the pairs
  /// Calibrate() filled plus every lookup outside them. Hits are not
  /// counted individually — the scan already counts row-pair compares, and
  /// every compare is exactly one lookup, so hit rate = 1 - misses/lookups
  /// without touching a shared counter on the hot path.
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  /// The edge probability between two null groups when each group
  /// contributes `arrays` rows and any of the arrays^2 row pairs can fire:
  /// p1 = 1 - (1 - p_star)^(arrays^2) (Section IV-B).
  static double EdgeProbFromPStar(double p_star, std::size_t arrays);

  /// Inverse of the above: the p_star achieving a target null edge
  /// probability p1.
  static double PStarFromEdgeProb(double p1, std::size_t arrays);

 private:
  // Direct computation for a pair the window does not hold; counts a miss.
  std::int64_t ComputeMiss(std::uint32_t i, std::uint32_t j) const;

  // lambda_{i,j} for i <= j, given `floor` = lambda_{i,j'} for some j' < j
  // (or -1 when none is known); counts a miss.
  std::int32_t CalibrateCell(std::uint32_t i, std::uint32_t j,
                             std::int64_t floor) const;

  std::size_t array_bits_;
  double p_star_;
  double log_p_star_;
  // Every distinct non-zero weight calibrated so far, ascending.
  mutable std::vector<std::uint32_t> weights_;
  // The symmetric window over [low_, low_ + span_) as a full square:
  // lambda_{i,j} sits at both window_[(i - low_) * span_ + (j - low_)] and
  // its mirror, or both are -1 for a pair of in-range weights that were
  // not both calibrated.
  mutable std::uint32_t low_ = 0;
  mutable std::uint32_t span_ = 0;
  mutable std::vector<std::int32_t> window_;
  mutable std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace dcs

#endif  // DCS_ANALYSIS_LAMBDA_TABLE_H_
