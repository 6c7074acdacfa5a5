#ifndef DCS_ANALYSIS_INCREMENTAL_WEIGHTS_H_
#define DCS_ANALYSIS_INCREMENTAL_WEIGHTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_vector.h"

namespace dcs {

/// \brief Running per-column 1-counts of a row-streamed bit matrix.
///
/// The weight screen's first pass rescans all n columns of the stacked
/// epoch matrix — O(rows x n/64) word scans per epoch, paid from scratch
/// every second in continuous operation. This accumulator maintains the
/// same counts *as rows arrive*, so by the time the epoch is analyzed the
/// weights already exist and the screen starts hot.
///
/// Cost: a row is added in O(row words) by the dispatched
/// add_row_to_byte_lanes kernel (common/bit_kernels.h), which adds each bit
/// to its column's byte-wide counter however many bits are set. The byte
/// counters are widened into the uint32_t weights before any of them can
/// overflow (every 255 rows) and when weights() is read: one O(columns)
/// pass per epoch.
///
/// Equivalence argument (docs/STREAMING.md): column weights are a sum of
/// per-row indicator vectors over the integers, and integer addition is
/// associative and commutative, so adding rows one digest at a time yields
/// exactly the vector BitMatrix::ColumnWeights() computes from the stacked
/// matrix — not approximately, bit for bit. tests/test_incremental_weights.cc
/// checks it across lane-widening boundaries, and the differential suite in
/// tests/test_epoch_ring.cc cross-checks it against the oracle every epoch.
///
/// Not safe for concurrent use, reads included: the first weights() call
/// after AddRow widens the pending counters in place.
class IncrementalColumnWeights {
 public:
  /// Forgets all rows (ring-slot reuse). Capacity is kept so a steady-state
  /// ring never reallocates.
  void Reset();

  /// Adds one row's bits to the running counts. The first row after
  /// construction or Reset() fixes the column count; later rows must match.
  void AddRow(const BitVector& row);

  /// Rows accumulated since the last Reset().
  std::size_t num_rows() const { return num_rows_; }

  /// Columns (0 until the first row arrives).
  std::size_t num_cols() const { return num_cols_; }

  /// weights()[c] == number of accumulated rows with bit c set. Sized
  /// num_cols().
  const std::vector<std::uint32_t>& weights() const;

 private:
  // Adds the byte counters into weights_ and zeroes them.
  void Widen() const;

  std::size_t num_rows_ = 0;
  std::size_t num_cols_ = 0;
  // lanes_[c] counts the rows, since the last Widen(), with column c set.
  // Sized to whole words: the padding columns' lanes stay zero.
  mutable std::vector<std::uint8_t> lanes_;
  // Rows added to lanes_ but not yet to weights_ (at most 255).
  mutable std::size_t pending_rows_ = 0;
  mutable std::vector<std::uint32_t> weights_;
};

}  // namespace dcs

#endif  // DCS_ANALYSIS_INCREMENTAL_WEIGHTS_H_
