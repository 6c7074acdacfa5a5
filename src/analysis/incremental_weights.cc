#include "analysis/incremental_weights.h"

#include <algorithm>

#include "common/bit_kernels.h"
#include "common/logging.h"

namespace dcs {
namespace {

// A byte counter holds at most this many rows.
constexpr std::size_t kMaxPendingRows = 255;

}  // namespace

void IncrementalColumnWeights::Reset() {
  num_rows_ = 0;
  num_cols_ = 0;
  pending_rows_ = 0;
  lanes_.clear();
  weights_.clear();
}

void IncrementalColumnWeights::AddRow(const BitVector& row) {
  if (num_cols_ == 0 && num_rows_ == 0) {
    num_cols_ = row.size();
    lanes_.assign(row.num_words() * 64, 0);
    weights_.assign(num_cols_, 0u);
  }
  DCS_CHECK(row.size() == num_cols_)
      << "row width " << row.size() << " disagrees with accumulated width "
      << num_cols_;
  ++num_rows_;
  if (num_cols_ == 0) return;
  if (pending_rows_ == kMaxPendingRows) Widen();
  // Padding bits past the logical size are zero (the BitVector invariant),
  // so lanes past num_cols_ stay zero and are never widened.
  ActiveBitKernels().add_row_to_byte_lanes(row.words(), row.num_words(),
                                           lanes_.data());
  ++pending_rows_;
}

const std::vector<std::uint32_t>& IncrementalColumnWeights::weights() const {
  if (pending_rows_ > 0) Widen();
  return weights_;
}

void IncrementalColumnWeights::Widen() const {
  for (std::size_t c = 0; c < num_cols_; ++c) weights_[c] += lanes_[c];
  std::fill(lanes_.begin(), lanes_.end(), std::uint8_t{0});
  pending_rows_ = 0;
}

}  // namespace dcs
