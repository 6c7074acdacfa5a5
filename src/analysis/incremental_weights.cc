#include "analysis/incremental_weights.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.h"

namespace dcs {
namespace {

// kSpread[x] holds bit j of x in the j-th byte of its in-memory
// representation, so adding it to a lane counts each of x's bits in its own
// byte, and the lanes read as bytes are the counts in column order.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t x = 0; x < table.size(); ++x) {
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t byte =
          std::endian::native == std::endian::little ? j : 7 - j;
      table[x] |= static_cast<std::uint64_t>((x >> j) & 1) << (8 * byte);
    }
  }
  return table;
}();

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
    lanes_.assign(row.num_words() * 8, 0);
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
  const std::uint64_t* words = row.words();
  std::uint64_t* lanes = lanes_.data();
  for (std::size_t w = 0; w < row.num_words(); ++w) {
    const std::uint64_t word = words[w];
    if (word == 0) continue;
    std::uint64_t* lane = lanes + 8 * w;
    for (std::size_t b = 0; b < 8; ++b) {
      lane[b] += kSpread[(word >> (8 * b)) & 0xFF];
    }
  }
  ++pending_rows_;
}

const std::vector<std::uint32_t>& IncrementalColumnWeights::weights() const {
  if (pending_rows_ > 0) Widen();
  return weights_;
}

void IncrementalColumnWeights::Widen() const {
  // Byte c of the lane array is column c's pending count.
  const auto* counts = reinterpret_cast<const unsigned char*>(lanes_.data());
  for (std::size_t c = 0; c < num_cols_; ++c) weights_[c] += counts[c];
  std::fill(lanes_.begin(), lanes_.end(), std::uint64_t{0});
  pending_rows_ = 0;
}

}  // namespace dcs
